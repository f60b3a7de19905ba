"""Ablation — scheduling policy cannot rescue SC_OC (paper §III-C).

Runs every FLUSIM scheduler (eager, LIFO, critical-path, SJF, LJF,
random) on both strategies' task graphs.  The paper's argument:
idleness comes from the task-graph shape, so even clairvoyant
priorities on the SC_OC graph cannot reach MC_TL's performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flusim import SCHEDULERS, ClusterConfig, simulate
from .common import cached_task_graph

__all__ = ["SchedulerAblation", "run", "metrics", "CLAIMS"]

#: No scheduler on SC_OC beats plain eager on MC_TL, and the best
#: scheduler's gain within SC_OC is smaller than switching strategy.
CLAIMS = (
    "best_sc_oc > makespan_mc_tl_eager",
    "gain_strategy > gain_scheduler",
)


@dataclass
class SchedulerAblation:
    """Makespan per (strategy, scheduler)."""

    schedulers: list[str]
    makespan: dict[tuple[str, str], float]


def run(
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


def metrics(r: SchedulerAblation) -> dict[str, float]:
    """Makespan per (strategy, scheduler), SC_OC's best, and the gains
    over eager SC_OC of its best scheduler and of eager MC_TL."""
    out = {
        f"makespan_{strategy.lower()}_{sched}": span
        for (strategy, sched), span in r.makespan.items()
    }
    out["best_sc_oc"] = min(r.makespan[("SC_OC", s)] for s in r.schedulers)
    base = r.makespan[("SC_OC", "eager")]
    out["gain_scheduler"] = 1.0 - out["best_sc_oc"] / base
    out["gain_strategy"] = 1.0 - r.makespan[("MC_TL", "eager")] / base
    return out
