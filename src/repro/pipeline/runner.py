"""The pipeline runner: execute a :class:`Scenario` chain with
content-addressed reuse of every prefix.

Execution goes through the stage-DAG layer: ``Pipeline.run`` compiles
a one-scenario :class:`~repro.pipeline.plan.StagePlan` and hands it to
the :class:`~repro.pipeline.scheduler.DagScheduler`; ``run_batch``
compiles *one merged plan* over the whole batch, so scenarios sharing
a mesh/levels prefix execute each shared stage exactly once and the
riders record it as ``"shared"`` provenance (distinct from a store
cache hit — see ``RunRecord.explain``).  Every node runs through
:func:`~repro.pipeline.scheduler.execute_stage`'s store protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..flusim.metrics import ScheduleMetrics
from ..flusim.trace import Trace
from ..mesh.structures import Mesh
from ..partitioning import DomainDecomposition
from ..taskgraph.dag import TaskDAG
from ..util.forkpool import pinned_n_jobs, resolve_n_jobs
from .config import Scenario
from .plan import StagePlan, compile_plan
from .scheduler import DagScheduler, PlanResult
from .stages import STAGE_ORDER
from .store import ArtifactStore, default_store

__all__ = [
    "StageRecord",
    "RunRecord",
    "Pipeline",
    "run_batch",
    "expand_sweep",
]


@dataclass(frozen=True)
class StageRecord:
    """Provenance of one stage execution within a run."""

    stage: str
    digest: str
    #: "memory" | "disk" (store hits), "shared" (another job in the
    #: same merged plan computed this node), or None (computed fresh).
    cache: str | None
    wall_time: float

    @property
    def hit(self) -> bool:
        """Whether the stage was served without computing it here."""
        return self.cache is not None


@dataclass
class RunRecord:
    """Typed result of one pipeline run: the chain's stage outputs
    and the provenance of each stage."""

    scenario: Scenario
    mesh: Mesh
    tau: np.ndarray
    decomp: DomainDecomposition | None = None
    dag: TaskDAG | None = None
    trace: Trace | None = None
    metrics: ScheduleMetrics | None = None
    provenance: dict[str, StageRecord] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        """Number of stages served without computing (store + shared)."""
        return sum(1 for r in self.provenance.values() if r.hit)

    @property
    def store_hits(self) -> int:
        """Stages served from the artifact store (memory or disk)."""
        return sum(
            1
            for r in self.provenance.values()
            if r.cache in ("memory", "disk")
        )

    @property
    def shared_hits(self) -> int:
        """Stages reused from another job in the same merged plan."""
        return sum(
            1 for r in self.provenance.values() if r.cache == "shared"
        )

    @property
    def all_cached(self) -> bool:
        """Whether every executed stage was a cache hit."""
        return bool(self.provenance) and all(
            r.hit for r in self.provenance.values()
        )

    def explain(self) -> str:
        """Human-readable per-stage provenance table.

        Sources: ``computed`` (ran here), ``memory``/``disk`` (store
        cache hits), ``shared`` (another scenario in the same merged
        plan computed the node — plan-time dedup, no store lookup).
        """
        lines = []
        for name in STAGE_ORDER:
            rec = self.provenance.get(name)
            if rec is None:
                continue
            source = rec.cache or "computed"
            lines.append(
                f"{name:>10s}  {rec.digest[:16]}  {source:<8s} "
                f"{1e3 * rec.wall_time:9.2f} ms"
            )
        if self.shared_hits:
            lines.append(
                f"{'':>10s}  ({self.store_hits} store hit(s), "
                f"{self.shared_hits} shared-prefix reuse(s))"
            )
        return "\n".join(lines)


class Pipeline:
    """Executes scenario chains against an artifact store.

    Parameters
    ----------
    store:
        The artifact store (defaults to the process-wide store —
        memory-only unless ``REPRO_ARTIFACTS`` / ``--artifacts``
        enabled the disk layer).
    n_jobs:
        Worker count for the partition stage's bisection tree; resolved
        *once* here (explicit → pinned → ``REPRO_N_JOBS`` → one per
        CPU) and pinned for this pipeline's runs
        (:func:`~repro.util.forkpool.pinned_n_jobs`) unless a
        scenario's ``PartitionConfig.n_jobs`` names its own.  It is not
        part of any content address: the labels are the same for every
        count (see :func:`repro.graph.partition.recursive_bisection`),
        so pipelines with different counts share partition artifacts.
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        *,
        n_jobs: int | None = None,
    ) -> None:
        self.store = store if store is not None else default_store()
        self.n_jobs = resolve_n_jobs(n_jobs)

    # ------------------------------------------------------------------
    def run(
        self, scenario: Scenario, *, through: str = "schedule"
    ) -> RunRecord:
        """Execute the chain up to and including stage ``through``
        (``"mesh"``, ``"levels"``, ``"partition"``, ``"taskgraph"``
        or ``"schedule"``)."""
        if through not in STAGE_ORDER:
            raise ValueError(
                f"unknown stage {through!r}; choose from {STAGE_ORDER}"
            )
        plan = compile_plan([scenario], through=through)
        with pinned_n_jobs(self.n_jobs):
            result = DagScheduler(self.store).execute(plan)
        return _record_from_plan(plan, result, 0)

    def case(self, scenario: Scenario) -> tuple[Mesh, np.ndarray]:
        """Shorthand: ``(mesh, tau)`` for a scenario prefix."""
        rec = self.run(scenario, through="levels")
        return rec.mesh, rec.tau


# ---------------------------------------------------------------------
_FIELD_OF_STAGE = {
    "mesh": "mesh",
    "levels": "tau",
    "partition": "decomp",
    "taskgraph": "dag",
}


def _record_from_plan(
    plan: StagePlan, result: PlanResult, job: int
) -> RunRecord:
    """Assemble one job's :class:`RunRecord` from an executed plan.

    Raises the job's causal exception if any node along its chain
    failed or was skipped, so a stage exception propagates out of
    ``run``.
    """
    if result.job_state(job) != "done":
        raise result.job_error(job)
    record = RunRecord(
        scenario=plan.scenarios[job], mesh=None, tau=None  # type: ignore[arg-type]
    )
    for name, key in plan.job_stages[job].items():
        node = result.nodes[key]
        cache = result.job_cache(job, key)
        record.provenance[name] = StageRecord(
            stage=name,
            digest=key,
            cache=cache,
            # A shared node's wall time belongs to the job that ran
            # it; riders got the object for free.
            wall_time=0.0 if cache == "shared" else node.wall_time,
        )
        obj = result.objects[key]
        if name == "schedule":
            record.trace, record.metrics = obj
        else:
            setattr(record, _FIELD_OF_STAGE[name], obj)
    return record


def expand_sweep(
    scenario: Scenario, sweep: dict[str, Sequence[Any]]
) -> list[Scenario]:
    """The cross product of leaf-option sweeps over a base scenario.

    ``sweep`` maps option names (any leaf field of a stage config,
    plus ``mesh``/``seed``) to value lists, e.g.
    ``{"domains": [32, 64, 128], "strategy": ["SC_OC", "MC_TL"]}``.
    """
    scenarios = [scenario]
    for key, values in sweep.items():
        scenarios = [
            sc.with_options(**{key: v}) for sc in scenarios for v in values
        ]
    return scenarios


def run_batch(
    scenarios: Sequence[Scenario],
    *,
    store: ArtifactStore | None = None,
    n_jobs: int | None = None,
    through: str = "schedule",
) -> list[RunRecord]:
    """Run a batch of scenarios as **one merged stage-DAG**.

    Chains sharing a prefix (same mesh/levels configs, say, differing
    only in partition seed) collapse onto shared plan nodes: each
    shared stage executes exactly once, and the scenarios that didn't
    run it record ``"shared"`` provenance.  ``n_jobs`` is resolved
    once by :func:`~repro.util.forkpool.resolve_n_jobs` (``None``: the
    pinned count, then ``REPRO_N_JOBS``, then one worker per CPU) and
    pinned for the batch, as :class:`Pipeline` pins its own: each round
    of ready nodes runs its misses on that many forked workers, while
    partition nodes run here on a bisection tree of that many.  The
    records, and the cache keys, are the same for every count and
    match the single-scenario runs users launch interactively.  Fully
    cached scenarios short-circuit to store lookups and start no pool.
    """
    store = store if store is not None else default_store()
    if not scenarios:
        return []
    jobs = resolve_n_jobs(n_jobs)
    plan = compile_plan(scenarios, through=through)
    with pinned_n_jobs(jobs):
        result = DagScheduler(store, max_workers=jobs).execute(plan)
    return [
        _record_from_plan(plan, result, j)
        for j in range(len(scenarios))
    ]
