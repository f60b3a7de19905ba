"""Extension study — strong scaling of the two strategies.

For a fixed mesh and fixed total domain count, the process count is
swept (cores per process fixed).  SC_OC saturates early: once each
process holds few domains, level concentration forces subiteration
starvation that more processes cannot fix.  MC_TL keeps scaling until
the critical path dominates.  This is the classical HPC view of the
paper's result — and the regime where its 20% production gain lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import ClusterConfig, simulate
from .common import cached_task_graph

__all__ = ["StrongScalingResult", "run", "report", "metrics", "CLAIMS"]

#: More processes never hurt (no step up beyond 2%); MC_TL reaches a
#: better best makespan and a larger speedup at the largest count.
CLAIMS = (
    "worst_step_sc_oc <= 1e-9",
    "worst_step_mc_tl <= 1e-9",
    "best_mc_tl < best_sc_oc",
    "final_speedup_mc_tl > final_speedup_sc_oc",
)


@dataclass
class StrongScalingResult:
    """Makespans over the process sweep."""

    process_counts: list[int]
    makespan: dict[str, np.ndarray]  # strategy -> per-count array
    parallel_efficiency: dict[str, np.ndarray]


def run(
    *,
    mesh_name: str = "cylinder",
    process_counts: tuple[int, ...] = (2, 4, 8, 16, 32),
    domains: int = 64,
    cores: int = 8,
    scale: int | None = None,
    seed: int = 0,
) -> StrongScalingResult:
    """Sweep the process count for both strategies."""
    makespan: dict[str, np.ndarray] = {}
    eff: dict[str, np.ndarray] = {}
    for strategy in ("SC_OC", "MC_TL"):
        spans = []
        effs = []
        for p in process_counts:
            dag = cached_task_graph(
                mesh_name, domains, p, strategy, scale=scale, seed=seed
            )
            trace = simulate(dag, ClusterConfig(p, cores), seed=seed)
            spans.append(trace.makespan)
            effs.append(trace.efficiency())
        makespan[strategy] = np.array(spans)
        eff[strategy] = np.array(effs)
    return StrongScalingResult(
        process_counts=list(process_counts),
        makespan=makespan,
        parallel_efficiency=eff,
    )


def metrics(r: StrongScalingResult) -> dict[str, float]:
    """Per strategy: makespan per process count, the best one, the
    speedup at the largest count, and the worst step up (the largest
    rise between counts beyond 2% of the makespan before it)."""
    out: dict[str, float] = {}
    for s in ("SC_OC", "MC_TL"):
        m = r.makespan[s]
        key = s.lower()
        for p, span in zip(r.process_counts, m):
            out[f"makespan_{key}_p{p}"] = span
        out[f"best_{key}"] = m.min()
        out[f"final_speedup_{key}"] = m[0] / m[-1]
        out[f"worst_step_{key}"] = (np.diff(m) - 0.02 * m[:-1]).max()
    return out


def report(r: StrongScalingResult) -> str:
    """Tabulate the scaling curves."""
    lines = [
        "processes : "
        + "  ".join(f"{p:>6d}" for p in r.process_counts)
    ]
    for s in ("SC_OC", "MC_TL"):
        lines.append(
            f"{s:>6s} span: "
            + "  ".join(f"{v:>6.0f}" for v in r.makespan[s])
        )
        lines.append(
            f"{s:>6s} eff : "
            + "  ".join(
                f"{v:>6.2f}" for v in r.parallel_efficiency[s]
            )
        )
    return "\n".join(lines)
