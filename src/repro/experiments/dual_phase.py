"""§VII perspective — dual-phase MC_TL → SC_OC partitioning.

"The first [phase] balances the temporal levels (MC_TL) where a
process is assigned to a single domain.  To achieve efficient
granularity with minimal communication, a second phase of partitioning
is performed within each domain using an operational cost balancing
strategy (SC_OC)."  The paper reports preliminary results showing a
favorable compromise between performance and communication.

This experiment compares, at equal domain count: pure SC_OC, pure
MC_TL and DUAL on makespan and cross-process communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flusim import ClusterConfig, simulate, taskgraph_comm_volume
from ..taskgraph import generate_task_graph
from .common import cached_decomposition, standard_case

__all__ = ["DualPhaseResult", "run", "report", "CLAIMS"]

#: DUAL recovers part of MC_TL's gain over SC_OC while communicating
#: less than full MC_TL at equal domain count.
CLAIMS = (
    "makespan_dual < makespan_sc_oc",
    "comm_volume_dual < comm_volume_mc_tl",
)


@dataclass
class DualPhaseResult:
    """Makespan/communication per strategy."""

    strategies: list[str]
    makespan: dict[str, float]
    comm_volume: dict[str, int]
    improvement_vs_sc_oc: dict[str, float]


def run(
    *,
    mesh_name: str = "cylinder",
    domains: int = 64,
    processes: int = 16,
    cores: int = 32,
    scale: int | None = None,
    seed: int = 0,
) -> DualPhaseResult:
    """Compare SC_OC / MC_TL / DUAL at equal domain counts."""
    mesh, tau = standard_case(mesh_name, scale=scale)
    cluster = ClusterConfig(processes, cores)
    strategies = ["SC_OC", "MC_TL", "DUAL"]
    makespan: dict[str, float] = {}
    comm: dict[str, int] = {}
    for strategy in strategies:
        decomp = cached_decomposition(
            mesh_name, domains, processes, strategy, scale=scale, seed=seed
        )
        dag = generate_task_graph(mesh, tau, decomp)
        trace = simulate(dag, cluster, scheduler="eager", seed=seed)
        makespan[strategy] = trace.makespan
        comm[strategy] = taskgraph_comm_volume(dag)
    impr = {
        s: 1.0 - makespan[s] / makespan["SC_OC"] for s in strategies
    }
    return DualPhaseResult(
        strategies=strategies,
        makespan=makespan,
        comm_volume=comm,
        improvement_vs_sc_oc=impr,
    )


def report(r: DualPhaseResult) -> str:
    """Tabulate the three strategies."""
    lines = [
        f"{s:>6s}: makespan {r.makespan[s]:8.0f}  comm "
        f"{r.comm_volume[s]:6d}  vs SC_OC "
        f"{100 * r.improvement_vs_sc_oc[s]:+5.1f}%"
        for s in r.strategies
    ]
    return "\n".join(lines)
