"""Ablation — geometric baselines (related work, §VIII).

RCB and SFC comparators balance only total cost, like SC_OC, and
ignore connectivity, so they inherit SC_OC's subiteration imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import run_flusim

__all__ = ["BaselineAblation", "run", "CLAIMS"]

#: MC_TL beats every single-criterion strategy, the geometric ones
#: included.
CLAIMS = (
    "makespan_mc_tl < makespan_sc_oc",
    "makespan_mc_tl < makespan_rcb",
    "makespan_mc_tl < makespan_sfc",
)


@dataclass
class BaselineAblation:
    """FLUSIM makespans of the geometric baselines vs SC_OC/MC_TL."""

    strategies: list[str]
    makespan: dict[str, float]
    speedup_vs_sc_oc: dict[str, float]


def run(
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
        rec = run_flusim(
            mesh_name, domains, processes, cores, s, scale=scale, seed=seed
        )
        makespan[s] = rec.metrics.makespan
    speedup = {s: makespan["SC_OC"] / makespan[s] for s in strategies}
    return BaselineAblation(
        strategies=strategies, makespan=makespan, speedup_vs_sc_oc=speedup
    )
