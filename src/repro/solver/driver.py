"""Multi-iteration simulation campaigns.

FLUSEPA runs thousands of iterations; the paper's analysis rests on
the observation that "the temporal levels of the cells experience
minimal evolution across iterations — hence, optimizing the entire
computation is equivalent to optimizing an individual iteration"
(§III-A).  This driver makes that workflow — and that claim —
testable:

* runs iterations of the task-distributed solver, either serially or
  on the threaded runtime (with optional fault injection, retry and a
  hang watchdog — see :mod:`repro.resilience`);
* every ``relevel_every`` iterations, re-derives the CFL-stable levels
  from the current state (CFL number 0.4, the default of
  :func:`~repro.solver.timestep.stable_timesteps`) and records how
  many cells changed level;
* re-partitions (and regenerates the task graph) when the drift
  exceeds ``repartition_threshold``;
* optionally validates the physics after every iteration and, on a
  violation, rolls back to the last in-memory snapshot — halving the
  base step on repeated failure and giving up with a diagnostic
  :class:`~repro.resilience.errors.PhysicsGuardError` after
  ``max_consecutive_rollbacks``;
* optionally writes atomic on-disk checkpoints every
  ``checkpoint_every`` iterations, from which
  :meth:`SimulationDriver.from_checkpoint` reconstructs and continues
  the campaign bit-for-bit (serial executor).

The campaign history quantifies level drift, repartitioning frequency
and — under injected faults — the recovery cost (retries, rollbacks,
wasted work) for the replica workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..mesh.structures import Mesh
from ..partitioning.decomposition import DomainDecomposition
from ..partitioning.strategies import make_decomposition
from ..resilience.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from ..resilience.errors import (
    PhysicsGuardError,
    TaskTimeoutError,
    TransientError,
)
from ..resilience.faults import FaultPlan
from ..resilience.guards import GuardConfig, check_state
from ..temporal.levels import levels_from_timestep, relevel_with_hysteresis
from .lts import LTSState, apply_cell_updates
from .runner import TaskDistributedSolver
from .timestep import stable_timesteps

__all__ = [
    "IterationRecord",
    "CampaignHealth",
    "CampaignResult",
    "SimulationDriver",
]


@dataclass
class IterationRecord:
    """History entry for one iteration of a campaign."""

    iteration: int
    elapsed: float
    level_changes: int  # cells whose τ changed at the last re-leveling
    repartitioned: bool
    rollbacks: int = 0  # rollbacks consumed before this iteration stuck
    retries: int = 0  # executor task retries within this iteration
    checkpointed: bool = False


@dataclass
class CampaignHealth:
    """Aggregate resilience accounting for a campaign."""

    retries: int = 0
    rollbacks: int = 0
    checkpoints: int = 0
    wasted_seconds: float = 0.0
    guard_violations: list[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"retries={self.retries} rollbacks={self.rollbacks} "
            f"checkpoints={self.checkpoints} "
            f"wasted={self.wasted_seconds:.3f}s "
            f"violations={len(self.guard_violations)}"
        )


@dataclass
class CampaignResult:
    """Outcome of :meth:`SimulationDriver.run`.

    Attributes
    ----------
    records:
        One entry per *completed* iteration (rolled-back attempts are
        folded into the eventual record's ``rollbacks`` count).
    state:
        Final solver state.
    health:
        Aggregate retry/rollback/checkpoint accounting.
    """

    records: list[IterationRecord] = field(default_factory=list)
    state: LTSState | None = None
    health: CampaignHealth = field(default_factory=CampaignHealth)

    @property
    def num_repartitions(self) -> int:
        """How many times the campaign re-partitioned."""
        return sum(r.repartitioned for r in self.records)

    def level_drift_fraction(self, num_cells: int) -> float:
        """Mean fraction of cells changing level per re-leveling."""
        checks = [r.level_changes for r in self.records if r.level_changes >= 0]
        if not checks:
            return 0.0
        return float(np.mean(checks)) / num_cells


class SimulationDriver:
    """Run a multi-iteration campaign with periodic re-leveling.

    Parameters
    ----------
    mesh, U0:
        The mesh and initial conserved state.
    num_domains, num_processes, strategy:
        Decomposition parameters (re-used on every repartition).
    num_levels:
        Cap on temporal levels.
    relevel_every:
        Re-derive CFL levels every this many iterations (0 = never).
    repartition_threshold:
        Fraction of cells changing level that triggers repartitioning.
    guard:
        Optional :class:`~repro.resilience.guards.GuardConfig`; when
        set, every iteration is validated and rolled back on
        violation.
    executor:
        ``"serial"`` (deterministic, the default) or ``"threaded"``
        (the real worker-thread runtime).
    cores_per_process, fault_plan, retry, watchdog:
        Threaded-executor knobs (see
        :func:`repro.runtime.run_iteration_threaded`); ``fault_plan``
        and ``watchdog`` require the threaded executor.
    checkpoint_every, checkpoint_dir:
        Write an atomic checkpoint every N completed iterations into
        ``checkpoint_dir`` (both must be set to enable).
    debug_verify_dag:
        Audit every generated task graph with
        :func:`repro.taskgraph.verify.verify_dag` (structure + coverage
        invariants) and raise on violations.  Costs one extra pass over
        the DAG per (re)build — meant for debugging and CI, not
        production campaigns.
    """

    def __init__(
        self,
        mesh: Mesh,
        U0: np.ndarray,
        *,
        num_domains: int,
        num_processes: int,
        strategy: str = "MC_TL",
        num_levels: int | None = None,
        relevel_every: int = 1,
        repartition_threshold: float = 0.05,
        seed: int = 0,
        guard: GuardConfig | None = None,
        executor: str = "serial",
        cores_per_process: int = 2,
        fault_plan: FaultPlan | None = None,
        retry=None,
        watchdog: float | None = None,
        checkpoint_every: int = 0,
        checkpoint_dir: str | Path | None = None,
        debug_verify_dag: bool = False,
    ) -> None:
        self._configure(
            mesh,
            num_domains=num_domains,
            num_processes=num_processes,
            strategy=strategy,
            num_levels=num_levels,
            relevel_every=relevel_every,
            repartition_threshold=repartition_threshold,
            seed=seed,
            guard=guard,
            executor=executor,
            cores_per_process=cores_per_process,
            fault_plan=fault_plan,
            retry=retry,
            watchdog=watchdog,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            debug_verify_dag=debug_verify_dag,
        )
        self.state = LTSState(U0)
        self.iteration = 0
        self.tau, self.dt_min = self._derive_levels()
        # Anchor the octave reference for hysteresis re-leveling: a
        # moving reference would reclassify cell populations whenever
        # the global minimum drifts (see
        # :func:`repro.temporal.levels.relevel_with_hysteresis`).
        self.dt_ref = self.dt_min
        self._rebuild(first=True)

    # ------------------------------------------------------------------
    def _configure(
        self,
        mesh: Mesh,
        *,
        num_domains: int,
        num_processes: int,
        strategy: str,
        num_levels: int | None,
        relevel_every: int,
        repartition_threshold: float,
        seed: int,
        guard: GuardConfig | None,
        executor: str,
        cores_per_process: int,
        fault_plan: FaultPlan | None,
        retry,
        watchdog: float | None,
        checkpoint_every: int,
        checkpoint_dir: str | Path | None,
        debug_verify_dag: bool = False,
    ) -> None:
        if executor not in ("serial", "threaded"):
            raise ValueError(
                f"unknown executor {executor!r}; expected 'serial' or "
                "'threaded'"
            )
        if fault_plan is not None and executor != "threaded":
            raise ValueError("fault_plan requires executor='threaded'")
        if watchdog is not None and executor != "threaded":
            raise ValueError("watchdog requires executor='threaded'")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        self.mesh = mesh
        self.num_domains = num_domains
        self.num_processes = num_processes
        self.strategy = strategy
        self.num_levels = num_levels
        self.relevel_every = relevel_every
        self.repartition_threshold = repartition_threshold
        self.seed = seed
        self.guard = guard
        self.executor = executor
        self.cores_per_process = cores_per_process
        self.fault_plan = fault_plan
        self.retry = retry
        self.watchdog = watchdog
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.debug_verify_dag = debug_verify_dag

    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        mesh: Mesh,
        path: str | Path,
        *,
        guard: GuardConfig | None = None,
        executor: str = "serial",
        cores_per_process: int = 2,
        fault_plan: FaultPlan | None = None,
        retry=None,
        watchdog: float | None = None,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | Path | None = None,
        debug_verify_dag: bool = False,
    ) -> "SimulationDriver":
        """Reconstruct a campaign from an on-disk checkpoint.

        The stored domain assignment is reused verbatim (*no*
        re-partitioning — the levels have evolved since the partition
        was computed); resilience knobs are per-session and passed
        fresh.  ``checkpoint_every``/``checkpoint_dir`` default to the
        values the checkpoint was written with.
        """
        from ..resilience.errors import CheckpointError

        ck = load_checkpoint(path)
        if len(ck.U) != mesh.num_cells:
            raise CheckpointError(
                f"checkpoint {path} has {len(ck.U)} cells but the mesh "
                f"has {mesh.num_cells}; wrong mesh?"
            )
        meta = ck.meta
        if checkpoint_every is None:
            checkpoint_every = int(meta.get("checkpoint_every", 0))
        if checkpoint_dir is None:
            checkpoint_dir = Path(path).parent if checkpoint_every else None

        drv = cls.__new__(cls)
        drv._configure(
            mesh,
            num_domains=ck.num_domains,
            num_processes=ck.num_processes,
            strategy=meta.get("strategy", "MC_TL"),
            num_levels=meta.get("num_levels"),
            relevel_every=int(meta.get("relevel_every", 1)),
            repartition_threshold=float(
                meta.get("repartition_threshold", 0.05)
            ),
            seed=int(meta.get("seed", 0)),
            guard=guard,
            executor=executor,
            cores_per_process=cores_per_process,
            fault_plan=fault_plan,
            retry=retry,
            watchdog=watchdog,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            debug_verify_dag=debug_verify_dag,
        )
        drv.state = LTSState(ck.U, ck.acc, ck.Ustar, ck.acc2)
        drv.iteration = ck.iteration
        drv.tau = np.asarray(ck.tau, dtype=np.int32)
        drv.dt_min = ck.dt_min
        drv.dt_ref = ck.dt_ref
        drv._last_dt = None
        drv.decomp = DomainDecomposition(
            domain=ck.domain,
            num_domains=ck.num_domains,
            domain_process=ck.domain_process,
            num_processes=ck.num_processes,
            strategy=meta.get("strategy", "?"),
        )
        drv.solver = TaskDistributedSolver(mesh, drv.tau, drv.decomp, drv.dt_min)
        drv._verify_solver_dag()
        return drv

    def save_checkpoint(self) -> Path:
        """Write an atomic checkpoint of the current campaign position
        (``iteration`` = completed iterations) into ``checkpoint_dir``;
        returns the manifest path."""
        if self.checkpoint_dir is None:
            raise ValueError("no checkpoint directory configured")
        ck = Checkpoint(
            iteration=self.iteration,
            U=self.state.U,
            acc=self.state.acc,
            Ustar=self.state.Ustar,
            acc2=self.state.acc2,
            tau=self.tau,
            domain=self.decomp.domain,
            domain_process=self.decomp.domain_process,
            dt_min=self.dt_min,
            dt_ref=self.dt_ref,
            num_processes=self.num_processes,
            meta={
                "strategy": self.strategy,
                "num_levels": self.num_levels,
                "relevel_every": self.relevel_every,
                "repartition_threshold": self.repartition_threshold,
                "seed": self.seed,
                "checkpoint_every": self.checkpoint_every,
            },
        )
        return save_checkpoint(self.checkpoint_dir, ck)

    # ------------------------------------------------------------------
    def _derive_levels(self) -> tuple[np.ndarray, float]:
        dt = stable_timesteps(self.mesh, self.state.U)
        self._last_dt = dt
        tau = levels_from_timestep(dt, num_levels=self.num_levels)
        dt_min = float((dt / np.ldexp(1.0, tau)).min())
        return tau, dt_min

    def _rebuild(self, *, first: bool = False) -> None:
        self.decomp = make_decomposition(
            self.mesh,
            self.tau,
            self.num_domains,
            self.num_processes,
            strategy=self.strategy,
            seed=self.seed,
        )
        self.solver = TaskDistributedSolver(
            self.mesh, self.tau, self.decomp, self.dt_min
        )
        self._verify_solver_dag()
        # Pending accumulations belong to the old schedule; apply any
        # residue before switching task structures so nothing is lost.
        if not first:
            nonzero = np.flatnonzero(np.abs(self.state.acc).sum(axis=1) > 0)
            apply_cell_updates(self.mesh, self.state, nonzero)

    def _verify_solver_dag(self) -> None:
        """Audit the freshly generated task graph (debug mode).

        Runs :func:`repro.taskgraph.verify.verify_dag` with the full
        coverage checks and raises on any violation — a generator
        regression should abort the campaign, not skew its results.
        """
        if not getattr(self, "debug_verify_dag", False):
            return
        from ..taskgraph.verify import verify_dag

        verify_dag(
            self.solver.dag,
            self.mesh,
            self.tau,
            scheme=self.solver.scheme,
            strict=True,
        )

    # ------------------------------------------------------------------
    def _run_one(self) -> tuple[float, int, float]:
        """One iteration on the configured executor; returns
        ``(elapsed, retries, wasted_seconds)``."""
        if self.executor == "threaded":
            from ..runtime import run_iteration_threaded

            run = run_iteration_threaded(
                self.solver,
                self.state,
                cores_per_process=self.cores_per_process,
                fault_plan=self.fault_plan,
                retry=self.retry,
                watchdog=self.watchdog,
            )
            h = run.result.health
            return run.result.elapsed, h.retries, h.total_wasted
        r = self.solver.run_iteration(self.state)
        return r.elapsed, 0, 0.0

    def run(self, iterations: int) -> CampaignResult:
        """Run ``iterations`` further full iterations; returns the
        campaign history (iteration numbers are global across
        checkpoint/resume)."""
        result = CampaignResult()
        health = result.health
        guard = self.guard
        snapshot: LTSState | None = None
        ref_total: np.ndarray | None = None
        if guard is not None:
            snapshot = self.state.copy()
            ref_total = snapshot.conserved_total(self.mesh)
        rollback_round = 0
        done = 0
        while done < iterations:
            it = self.iteration
            if self.fault_plan is not None:
                self.fault_plan.set_context(it, rollback_round)
            violations: list[str] = []
            iter_retries = 0
            try:
                elapsed, iter_retries, wasted = self._run_one()
                health.retries += iter_retries
                health.wasted_seconds += wasted
            except (TransientError, TaskTimeoutError) as exc:
                if guard is None:
                    raise
                violations = [f"{type(exc).__name__}: {exc}"]
                elapsed = 0.0
            if guard is not None and not violations:
                report = check_state(
                    self.mesh, self.state, guard,
                    reference_total=ref_total,
                )
                violations = report.violations
            if violations:
                # Roll back to the last good snapshot; re-run at the
                # same dt once, then degrade by halving the base step.
                assert snapshot is not None
                health.rollbacks += 1
                rollback_round += 1
                health.guard_violations.extend(
                    f"iteration {it}: {v}" for v in violations
                )
                if rollback_round > guard.max_consecutive_rollbacks:
                    raise PhysicsGuardError(
                        f"iteration {it} failed its physics guards "
                        f"{rollback_round} consecutive times "
                        f"(dt_min={self.dt_min:.3e}); last violations: "
                        + "; ".join(violations),
                        violations=health.guard_violations,
                    )
                # Fresh arrays: a worker abandoned by the watchdog may
                # still hold references to the old state.
                self.state = snapshot.copy()
                if rollback_round >= 2:
                    self.dt_min *= 0.5
                    self.solver.dt_min = self.dt_min
                continue
            rolled, rollback_round = rollback_round, 0
            changes = -1
            repartitioned = False
            if self.relevel_every and (it + 1) % self.relevel_every == 0:
                dt = stable_timesteps(self.mesh, self.state.U)
                self._last_dt = dt
                new_tau = relevel_with_hysteresis(
                    dt,
                    self.tau,
                    self.dt_ref,
                    num_levels=self.num_levels,
                )
                new_dt = float((dt / np.ldexp(1.0, new_tau)).min())
                changes = int(np.sum(new_tau != self.tau))
                drift = changes / self.mesh.num_cells
                if drift > self.repartition_threshold:
                    self.tau, self.dt_min = new_tau, new_dt
                    self._rebuild()
                    repartitioned = True
                else:
                    # Keep the old levels/decomposition, but ensure the
                    # base step is still CFL-safe for them: a level-τ
                    # cell advances 2^τ·dt_min per activation.
                    safe_dt = float(
                        (self._last_dt / np.ldexp(1.0, self.tau)).min()
                    )
                    if safe_dt < self.dt_min:
                        self.dt_min = safe_dt
                        self.solver.dt_min = safe_dt
            self.iteration += 1
            done += 1
            checkpointed = False
            if (
                self.checkpoint_every
                and self.iteration % self.checkpoint_every == 0
            ):
                self.save_checkpoint()
                health.checkpoints += 1
                checkpointed = True
            if guard is not None:
                snapshot = self.state.copy()
                ref_total = snapshot.conserved_total(self.mesh)
            result.records.append(
                IterationRecord(
                    iteration=it,
                    elapsed=elapsed,
                    level_changes=changes,
                    repartitioned=repartitioned,
                    rollbacks=rolled,
                    retries=iter_retries,
                    checkpointed=checkpointed,
                )
            )
        result.state = self.state
        return result
