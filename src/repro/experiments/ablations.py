"""Ablation studies around the paper's design choices.

1. **Scheduling policies** (§III-C): the paper argues better scheduling
   cannot fix the SC_OC task graph; we quantify this by running every
   scheduler on both strategies' graphs.
2. **Geometric baselines** (§VIII): RCB and SFC comparators, which
   balance only total cost and ignore connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flusim import SCHEDULERS, ClusterConfig, simulate
from .common import cached_task_graph, run_flusim

__all__ = [
    "SchedulerAblation",
    "run_scheduler_ablation",
    "BaselineAblation",
    "run_baseline_ablation",
]


@dataclass
class SchedulerAblation:
    """Makespan per (strategy, scheduler)."""

    schedulers: list[str]
    makespan: dict[tuple[str, str], float]

    def best_improvement_within(self, strategy: str) -> float:
        """Best relative gain any scheduler achieves over eager, for a
        fixed partitioning strategy."""
        base = self.makespan[(strategy, "eager")]
        best = min(
            self.makespan[(strategy, s)] for s in self.schedulers
        )
        return 1.0 - best / base


def run_scheduler_ablation(
    *,
    mesh_name: str = "cylinder",
    domains: int = 64,
    processes: int = 16,
    cores: int = 32,
    scale: int | None = None,
    seed: int = 0,
) -> SchedulerAblation:
    """Every scheduler × both strategies."""
    makespan: dict[tuple[str, str], float] = {}
    for strategy in ("SC_OC", "MC_TL"):
        dag = cached_task_graph(
            mesh_name, domains, processes, strategy, scale=scale, seed=seed
        )
        cluster = ClusterConfig(processes, cores)
        for sched in SCHEDULERS:
            trace = simulate(dag, cluster, scheduler=sched, seed=seed)
            makespan[(strategy, sched)] = trace.makespan
    return SchedulerAblation(schedulers=list(SCHEDULERS), makespan=makespan)


@dataclass
class BaselineAblation:
    """FLUSIM makespans of the geometric baselines vs SC_OC/MC_TL."""

    strategies: list[str]
    makespan: dict[str, float]
    speedup_vs_sc_oc: dict[str, float]


def run_baseline_ablation(
    *,
    mesh_name: str = "cylinder",
    domains: int = 64,
    processes: int = 16,
    cores: int = 32,
    scale: int | None = None,
    seed: int = 0,
) -> BaselineAblation:
    """Compare RCB and SFC against the graph-based strategies."""
    strategies = ["SC_OC", "MC_TL", "RCB", "SFC"]
    makespan: dict[str, float] = {}
    for s in strategies:
        _, _, m = run_flusim(
            mesh_name, domains, processes, cores, s, scale=scale, seed=seed
        )
        makespan[s] = m.makespan
    speedup = {s: makespan["SC_OC"] / makespan[s] for s in strategies}
    return BaselineAblation(
        strategies=strategies, makespan=makespan, speedup_vs_sc_oc=speedup
    )
