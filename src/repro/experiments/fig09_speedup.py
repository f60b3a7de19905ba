"""Fig. 9 — the headline result: MC_TL ≈ 2× faster than SC_OC.

CYLINDER and CUBE, 128 domains, executed by FLUSIM on 16 MPI processes
of 32 cores each.  The paper's traces show "a clear visual
representation of an acceleration factor of 2 in execution time by
applying the new MC_TL strategy".
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import run_flusim

__all__ = ["Fig9Result", "run", "report", "CLAIMS"]

#: MC_TL decisively faster on both meshes — a ×1.5–×3 envelope around
#: the paper's ×2 — and more efficient.
CLAIMS = (
    "1.5 < speedup_cylinder < 3.0",
    "efficiency_mc_tl_cylinder > efficiency_sc_oc_cylinder",
    "1.5 < speedup_cube < 3.0",
    "efficiency_mc_tl_cube > efficiency_sc_oc_cube",
)


@dataclass
class Fig9Result:
    """Makespans and speedups per mesh."""

    meshes: list[str]
    makespan_sc_oc: dict[str, float]
    makespan_mc_tl: dict[str, float]
    speedup: dict[str, float]
    efficiency_sc_oc: dict[str, float]
    efficiency_mc_tl: dict[str, float]
    total_work: dict[str, float]


def run(
    *,
    meshes: tuple[str, ...] = ("cylinder", "cube"),
    domains: int = 128,
    processes: int = 16,
    cores: int = 32,
    scale: int | None = None,
    seed: int = 0,
) -> Fig9Result:
    """Run the SC_OC vs MC_TL comparison on both meshes."""
    ms_sc, ms_mc, sp, eff_sc, eff_mc, tw = {}, {}, {}, {}, {}, {}
    for name in meshes:
        rec_sc = run_flusim(
            name, domains, processes, cores, "SC_OC", scale=scale, seed=seed
        )
        rec_mc = run_flusim(
            name, domains, processes, cores, "MC_TL", scale=scale, seed=seed
        )
        m_sc, m_mc = rec_sc.metrics, rec_mc.metrics
        ms_sc[name] = m_sc.makespan
        ms_mc[name] = m_mc.makespan
        sp[name] = m_sc.makespan / m_mc.makespan
        eff_sc[name] = m_sc.efficiency
        eff_mc[name] = m_mc.efficiency
        tw[name] = rec_sc.dag.total_work()
        # Invariant: the total work must not depend on the strategy.
        assert abs(rec_sc.dag.total_work() - rec_mc.dag.total_work()) < 1e-9
    return Fig9Result(
        meshes=list(meshes),
        makespan_sc_oc=ms_sc,
        makespan_mc_tl=ms_mc,
        speedup=sp,
        efficiency_sc_oc=eff_sc,
        efficiency_mc_tl=eff_mc,
        total_work=tw,
    )


def report(r: Fig9Result) -> str:
    """Per-mesh speedup lines (paper: ×2 for both meshes)."""
    lines = []
    for name in r.meshes:
        lines.append(
            f"{name.upper()}: SC_OC makespan {r.makespan_sc_oc[name]:.0f} → "
            f"MC_TL {r.makespan_mc_tl[name]:.0f} "
            f"(speedup ×{r.speedup[name]:.2f}, paper ≈×2); efficiency "
            f"{r.efficiency_sc_oc[name]:.2f} → {r.efficiency_mc_tl[name]:.2f}"
        )
    return "\n".join(lines)
