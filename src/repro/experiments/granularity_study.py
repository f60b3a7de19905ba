"""Extension study — automatic domain-granularity selection.

Implements the paper's concluding perspective: "exploring ways to
automatically determine the best domain granularity with respect to
the target machine's number of cores."  The study runs the tuner for
both strategies under three overhead regimes (free, per-task overhead,
per-task + communication penalty) and reports the selected domain
counts and their makespans.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..flusim import ClusterConfig
from ..partitioning import (
    GranularitySearchResult,
    granularity_candidates,
    tune_granularity,
)
from ..pipeline import Pipeline
from .common import standard_scenario

__all__ = ["GranularityStudyResult", "run", "report", "metrics", "CLAIMS"]

#: Overheads never push the optimum finer, for either strategy.
CLAIMS = (
    "domains_sc_oc_overhead <= domains_sc_oc_free",
    "domains_sc_oc_overhead_comm <= domains_sc_oc_overhead",
    "domains_mc_tl_overhead <= domains_mc_tl_free",
    "domains_mc_tl_overhead_comm <= domains_mc_tl_overhead",
)


@dataclass
class GranularityStudyResult:
    """Tuner outcomes per (strategy, regime)."""

    regimes: list[str]
    # (strategy, regime) -> search result
    searches: dict[tuple[str, str], GranularitySearchResult]

    def best_domains(self, strategy: str, regime: str) -> int:
        """Selected domain count for a (strategy, regime) pair."""
        return self.searches[(strategy, regime)].best.domains


def run(
    *,
    mesh_name: str = "cylinder",
    processes: int = 8,
    cores: int = 16,
    task_overhead: float = 2.0,
    comm_cost: float = 0.05,
    scale: int | None = None,
    seed: int = 0,
) -> GranularityStudyResult:
    """Run the tuner for both strategies under three regimes."""
    mesh, tau = Pipeline().case(standard_scenario(mesh_name, scale=scale))
    cluster = ClusterConfig(processes, cores)
    regimes = {
        "free": dict(task_overhead=0.0, comm_cost=0.0),
        "overhead": dict(task_overhead=task_overhead, comm_cost=0.0),
        "overhead+comm": dict(
            task_overhead=task_overhead, comm_cost=comm_cost
        ),
    }
    searches: dict[tuple[str, str], GranularitySearchResult] = {}
    for strategy in ("SC_OC", "MC_TL"):
        # One decomposition and task graph per domain count, scored
        # under every regime.
        candidates = granularity_candidates(
            mesh, tau, processes, strategy=strategy, seed=seed
        )
        for regime, kwargs in regimes.items():
            searches[(strategy, regime)] = tune_granularity(
                candidates, cluster, **kwargs
            )
    return GranularityStudyResult(
        regimes=list(regimes), searches=searches
    )


def metrics(r: GranularityStudyResult) -> dict[str, float]:
    """Selected domain count per (strategy, regime)."""
    return {
        f"domains_{s.lower()}_{g.replace('+', '_')}": r.best_domains(s, g)
        for s in ("SC_OC", "MC_TL")
        for g in r.regimes
    }


def report(r: GranularityStudyResult) -> str:
    """Tabulate selected granularities and makespans."""
    lines = []
    for strategy in ("SC_OC", "MC_TL"):
        for regime in r.regimes:
            s = r.searches[(strategy, regime)]
            curve = "  ".join(
                f"{p.domains}:{p.objective:.0f}" for p in s.evaluated
            )
            lines.append(
                f"{strategy:>6s} / {regime:<14s} best={s.best.domains:<4d} "
                f"(makespan {s.best.makespan:.0f}, comm "
                f"{s.best.comm_volume}) | {curve}"
            )
    return "\n".join(lines)
