"""Fig. 12 — PPRIME_NOZZLE in FLUSIM: MC_TL ≈ 20% faster.

Same configuration as Fig. 5 (12 domains, 6 processes × 4 cores), both
strategies.  The nozzle's "more intricate structure produces a
slightly smaller, but still considerable, improvement of around 20%".
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import run_flusim

__all__ = ["Fig12Result", "run", "report"]


@dataclass
class Fig12Result:
    """Nozzle FLUSIM comparison."""

    makespan_sc_oc: float
    makespan_mc_tl: float
    improvement: float  # 1 − MC_TL/SC_OC
    efficiency_sc_oc: float
    efficiency_mc_tl: float


def run(
    *,
    mesh_name: str = "pprime_nozzle",
    domains: int = 12,
    processes: int = 6,
    cores: int = 4,
    scale: int | None = None,
    seed: int = 0,
) -> Fig12Result:
    """Run the nozzle FLUSIM comparison."""
    m_sc = run_flusim(
        mesh_name, domains, processes, cores, "SC_OC", scale=scale, seed=seed
    ).metrics
    m_mc = run_flusim(
        mesh_name, domains, processes, cores, "MC_TL", scale=scale, seed=seed
    ).metrics
    return Fig12Result(
        makespan_sc_oc=m_sc.makespan,
        makespan_mc_tl=m_mc.makespan,
        improvement=1.0 - m_mc.makespan / m_sc.makespan,
        efficiency_sc_oc=m_sc.efficiency,
        efficiency_mc_tl=m_mc.efficiency,
    )


def report(r: Fig12Result) -> str:
    """Summary line (paper: ~20% improvement)."""
    return (
        f"NOZZLE FLUSIM: SC_OC {r.makespan_sc_oc:.0f} → MC_TL "
        f"{r.makespan_mc_tl:.0f} ({100 * r.improvement:.0f}% faster, "
        f"paper ≈20%); efficiency {r.efficiency_sc_oc:.2f} → "
        f"{r.efficiency_mc_tl:.2f}"
    )
