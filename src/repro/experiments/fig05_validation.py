"""Fig. 5 — FLUSIM validity: simulator vs real execution.

The paper compares a real FLUSEPA run against FLUSIM with identical
parameters (PPRIME_NOZZLE, 12 domains SC_OC, 6 MPI processes × 4
cores) and observes the same scheduling patterns with a ~20% variance
in iteration time.

Here the "real execution" is the mini-FLUSEPA solver: every task of
the same task graph runs its actual finite-volume kernel and is
wall-clock timed; the measured durations are replayed on the virtual
cluster.  FLUSIM's prediction uses the abstract cost model
(cost ∝ object count).  The comparison reports the relative variance
between the two makespans after normalizing total work — i.e. purely
the *shape* mismatch of the cost model, which is what the paper's 20%
figure measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import ClusterConfig, simulate
from ..pipeline import Pipeline
from ..solver import LTSState, TaskDistributedSolver, blast_wave
from ..solver.timestep import stable_timesteps
from .common import standard_scenario

__all__ = ["Fig5Result", "run", "report", "CLAIMS"]

#: FLUSIM predicts the measured schedule within 50% at replica scale
#: (the paper's 20% is at 500× larger meshes).
CLAIMS = (
    "variance < 0.5",
    "makespan_measured > 0",
    "makespan_model > 0",
)


@dataclass
class Fig5Result:
    """Model-predicted vs measured-replay schedules."""

    makespan_model: float
    makespan_measured: float
    variance: float  # |model − measured| / measured, after normalization
    efficiency_model: float
    efficiency_measured: float
    num_tasks: int


def run(
    *,
    mesh_name: str = "pprime_nozzle",
    domains: int = 12,
    processes: int = 6,
    cores: int = 4,
    scale: int | None = None,
    seed: int = 0,
    warmup_iterations: int = 1,
    scheme: str = "heun",
) -> Fig5Result:
    """Run the Fig. 5 validation experiment (second-order Heun
    kernels by default, like FLUSEPA)."""
    # One typed pipeline run up to the task graph: mesh, levels and
    # the SC_OC decomposition are all served from the artifact store
    # when previously computed.
    rec = Pipeline().run(
        standard_scenario(
            mesh_name,
            domains,
            processes,
            cores,
            "SC_OC",
            scale=scale,
            seed=seed,
            scheme=scheme,
        ),
        through="taskgraph",
    )
    mesh, tau_depth, decomp, dag = rec.mesh, rec.tau, rec.decomp, rec.dag
    cluster = ClusterConfig(processes, cores)

    # --- FLUSIM prediction from the abstract cost model ---------------
    trace_model = simulate(dag, cluster, scheduler="eager", seed=seed)

    # --- "production" run: real kernels, measured durations -----------
    U0 = blast_wave(mesh)
    # CFL-safe base step for the depth-derived levels.
    dt_min = float(
        (stable_timesteps(mesh, U0) / np.ldexp(1.0, tau_depth)).min()
    )
    solver = TaskDistributedSolver(
        mesh, tau_depth, decomp, dt_min, dag=dag, scheme=scheme
    )
    state = LTSState(U0)
    for _ in range(warmup_iterations):  # warm caches/JIT-free but fair
        solver.run_iteration(LTSState(U0))
    result = solver.run_iteration(state)
    trace_measured = simulate(
        dag, cluster, scheduler="eager", durations=result.durations, seed=seed
    )

    # Normalize: scale model costs so total work matches measured total
    # work, isolating shape (per-task cost profile) differences.
    scale_factor = result.durations.sum() / max(dag.tasks.cost.sum(), 1e-300)
    makespan_model = trace_model.makespan * scale_factor
    makespan_measured = trace_measured.makespan
    variance = abs(makespan_model - makespan_measured) / makespan_measured
    return Fig5Result(
        makespan_model=float(makespan_model),
        makespan_measured=float(makespan_measured),
        variance=float(variance),
        efficiency_model=trace_model.efficiency(),
        efficiency_measured=trace_measured.efficiency(),
        num_tasks=dag.num_tasks,
    )


def report(r: Fig5Result) -> str:
    """One-paragraph summary matching the paper's claim."""
    return (
        f"FLUSIM vs measured replay (nozzle, SC_OC): model makespan "
        f"{r.makespan_model:.4f}s vs measured {r.makespan_measured:.4f}s "
        f"→ variance {100 * r.variance:.1f}% (paper: ~20%). "
        f"Efficiency model {r.efficiency_model:.2f} / measured "
        f"{r.efficiency_measured:.2f}; {r.num_tasks} tasks."
    )
