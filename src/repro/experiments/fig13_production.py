"""Fig. 13 — production validation: MC_TL gain with *real* task
durations.

The paper's final experiment runs MC_TL inside FLUSEPA itself and
still measures ~20% gain "with all the overhead and communication that
goes with it".  Our production stand-in executes every task's actual
finite-volume kernel (mini-FLUSEPA), measures per-task wall-clock
durations, and replays them on the virtual cluster for both
partitioning strategies — so the comparison includes all real cost
effects the cost model misses (cache behaviour, per-task overhead,
NumPy fixed costs on small tasks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import ClusterConfig, simulate
from ..solver import LTSState, TaskDistributedSolver, blast_wave
from ..solver.timestep import stable_timesteps
from ..taskgraph import generate_task_graph
from .common import cached_decomposition, standard_case

__all__ = ["Fig13Result", "run", "report", "CLAIMS"]

#: MC_TL wins with real measured durations, and the serial-work
#: penalty of its finer tasks stays bounded.
CLAIMS = (
    "improvement > 0.0",
    "serial_time_mc_tl < 1.4 * serial_time_sc_oc",
    "tasks_mc_tl > tasks_sc_oc",
)


@dataclass
class Fig13Result:
    """Measured-duration comparison between strategies."""

    makespan_sc_oc: float
    makespan_mc_tl: float
    improvement: float
    serial_time_sc_oc: float
    serial_time_mc_tl: float
    tasks_sc_oc: int
    tasks_mc_tl: int


def run(
    *,
    mesh_name: str = "pprime_nozzle",
    domains: int = 12,
    processes: int = 6,
    cores: int = 4,
    scale: int | None = 10,
    seed: int = 0,
    scheme: str = "heun",
) -> Fig13Result:
    """Run the production-replay comparison.

    ``scheme`` defaults to ``"heun"`` — the paper's second-order
    integrator — so the measured kernels are the production ones.

    The default scale (``max_depth=10``, ~100k cells) is one step above
    the other experiments: with very small meshes, per-task fixed
    overhead (NumPy call costs) penalizes MC_TL's finer tasks and masks
    the scheduling gain; at 10⁵+ cells the gain dominates, as it does
    at the paper's 10⁷-cell production scale (see EXPERIMENTS.md).
    """
    mesh, tau = standard_case(mesh_name, scale=scale)
    U0 = blast_wave(mesh)
    # CFL-safe base step for the depth-derived levels: a level-τ cell
    # advances 2**τ·dt_min, which must not exceed its stability bound.
    dt_min = float((stable_timesteps(mesh, U0) / np.ldexp(1.0, tau)).min())
    cluster = ClusterConfig(processes, cores)

    results = {}
    for strategy in ("SC_OC", "MC_TL"):
        decomp = cached_decomposition(
            mesh_name, domains, processes, strategy, scale=scale, seed=seed
        )
        dag = generate_task_graph(mesh, tau, decomp, scheme=scheme)
        solver = TaskDistributedSolver(
            mesh, tau, decomp, dt_min, dag=dag, scheme=scheme
        )
        solver.run_iteration(LTSState(U0))  # warmup
        it = solver.run_iteration(LTSState(U0))
        trace = simulate(
            dag, cluster, scheduler="eager", durations=it.durations, seed=seed
        )
        results[strategy] = (trace.makespan, it.durations.sum(), dag.num_tasks)

    ms_sc, serial_sc, nt_sc = results["SC_OC"]
    ms_mc, serial_mc, nt_mc = results["MC_TL"]
    return Fig13Result(
        makespan_sc_oc=float(ms_sc),
        makespan_mc_tl=float(ms_mc),
        improvement=1.0 - ms_mc / ms_sc,
        serial_time_sc_oc=float(serial_sc),
        serial_time_mc_tl=float(serial_mc),
        tasks_sc_oc=nt_sc,
        tasks_mc_tl=nt_mc,
    )


def report(r: Fig13Result) -> str:
    """Summary line (paper: ~20% gain in production)."""
    return (
        f"Production replay (measured kernels): SC_OC "
        f"{r.makespan_sc_oc * 1e3:.2f}ms → MC_TL "
        f"{r.makespan_mc_tl * 1e3:.2f}ms "
        f"({100 * r.improvement:.0f}% faster, paper ≈20%). Serial kernel "
        f"time {r.serial_time_sc_oc * 1e3:.1f}ms vs "
        f"{r.serial_time_mc_tl * 1e3:.1f}ms; tasks {r.tasks_sc_oc} vs "
        f"{r.tasks_mc_tl}."
    )
