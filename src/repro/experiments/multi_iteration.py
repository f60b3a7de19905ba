"""Extension study — cross-iteration pipelining.

The paper simulates a single iteration and argues the pattern repeats
("this pattern is reproduced at each iteration").  With no global
barrier between iterations (the task dependencies alone separate
them), a process that finishes its subiterations early can start the
next iteration's work — which partially hides SC_OC's imbalance, the
same mechanism as the Fig 11a granularity effect.  This study chains
k iterations into one DAG and measures the *steady-state* per-iteration
makespan against the single-iteration one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flusim import ClusterConfig, simulate
from ..taskgraph import generate_task_graph
from .common import cached_decomposition, standard_case

__all__ = ["MultiIterationResult", "run", "report", "CLAIMS"]

#: Pipelining across iterations can only help, and MC_TL's
#: steady-state advantage holds.
CLAIMS = (
    "amortized_sc_oc <= single_sc_oc * 1.001",
    "amortized_mc_tl <= single_mc_tl * 1.001",
    "speedup_amortized > 1.3",
)


@dataclass
class MultiIterationResult:
    """Single-iteration vs amortized multi-iteration makespans."""

    iterations: int
    single: dict[str, float]  # strategy -> 1-iteration makespan
    amortized: dict[str, float]  # strategy -> k-iteration makespan / k
    pipelining_gain: dict[str, float]  # 1 − amortized/single
    speedup_single: float
    speedup_amortized: float


def run(
    *,
    mesh_name: str = "cylinder",
    iterations: int = 4,
    domains: int = 64,
    processes: int = 16,
    cores: int = 32,
    scale: int | None = None,
    seed: int = 0,
) -> MultiIterationResult:
    """Compare single-iteration and k-iteration schedules."""
    mesh, tau = standard_case(mesh_name, scale=scale)
    cluster = ClusterConfig(processes, cores)
    single: dict[str, float] = {}
    amortized: dict[str, float] = {}
    for strategy in ("SC_OC", "MC_TL"):
        decomp = cached_decomposition(
            mesh_name, domains, processes, strategy, scale=scale, seed=seed
        )
        dag1 = generate_task_graph(mesh, tau, decomp)
        single[strategy] = simulate(dag1, cluster, seed=seed).makespan
        dagk = generate_task_graph(
            mesh, tau, decomp, iterations=iterations
        )
        amortized[strategy] = (
            simulate(dagk, cluster, seed=seed).makespan / iterations
        )
    gain = {
        s: 1.0 - amortized[s] / single[s] for s in single
    }
    return MultiIterationResult(
        iterations=iterations,
        single=single,
        amortized=amortized,
        pipelining_gain=gain,
        speedup_single=single["SC_OC"] / single["MC_TL"],
        speedup_amortized=amortized["SC_OC"] / amortized["MC_TL"],
    )


def report(r: MultiIterationResult) -> str:
    """Tabulate single vs amortized makespans."""
    lines = [
        f"{s}: single {r.single[s]:.0f} → amortized over "
        f"{r.iterations} iterations {r.amortized[s]:.0f} "
        f"(pipelining gain {100 * r.pipelining_gain[s]:.0f}%)"
        for s in ("SC_OC", "MC_TL")
    ]
    lines.append(
        f"MC_TL speedup: ×{r.speedup_single:.2f} single-iteration, "
        f"×{r.speedup_amortized:.2f} steady-state"
    )
    return "\n".join(lines)
