"""Extension study — sensitivity to the temporal-level distribution.

The paper evaluates three fixed meshes.  This study asks *when* MC_TL
matters: using :func:`repro.temporal.assign_levels_by_fraction` on a
single mesh, the fraction of fine cells is swept while the geometry
stays constant (fine cells are always the smallest, spatially
clustered ones).  The speedup curve shows the regime structure: with
almost no fine cells or almost all fine cells the mesh is effectively
single-level and SC_OC ≈ MC_TL; in between, level classes coexist and
concentrate spatially — the paper's regime — and MC_TL wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import ClusterConfig, simulate
from ..partitioning import make_decomposition
from ..taskgraph import generate_task_graph
from ..temporal import assign_levels_by_fraction
from .common import standard_case

__all__ = ["DistributionSweepResult", "run", "report", "metrics", "CLAIMS"]

#: MC_TL never loses badly anywhere in the sweep, and wins clearly
#: somewhere in the paper-like minority-fine regime.
CLAIMS = (
    "min_speedup > 0.9",
    "max_speedup > 1.3",
)


@dataclass
class DistributionSweepResult:
    """Speedup as a function of the fine-cell fraction."""

    fine_fractions: list[float]
    speedup: np.ndarray
    makespan_sc_oc: np.ndarray
    makespan_mc_tl: np.ndarray


def run(
    *,
    mesh_name: str = "cylinder",
    fine_fractions: tuple[float, ...] = (0.02, 0.05, 0.1, 0.2, 0.4),
    num_levels: int = 3,
    domains: int = 32,
    processes: int = 8,
    cores: int = 16,
    scale: int | None = 9,
    seed: int = 0,
) -> DistributionSweepResult:
    """Sweep the fine-cell fraction at fixed geometry."""
    mesh, _ = standard_case(mesh_name, scale=scale)
    cluster = ClusterConfig(processes, cores)
    sp, ms_sc, ms_mc = [], [], []
    for f0 in fine_fractions:
        rest = (1.0 - f0) / (num_levels - 1)
        fractions = np.array([f0] + [rest] * (num_levels - 1))
        tau = assign_levels_by_fraction(mesh, fractions, seed=seed)
        spans = {}
        for strategy in ("SC_OC", "MC_TL"):
            decomp = make_decomposition(
                mesh, tau, domains, processes, strategy=strategy, seed=seed
            )
            dag = generate_task_graph(mesh, tau, decomp)
            spans[strategy] = simulate(dag, cluster, seed=seed).makespan
        ms_sc.append(spans["SC_OC"])
        ms_mc.append(spans["MC_TL"])
        sp.append(spans["SC_OC"] / spans["MC_TL"])
    return DistributionSweepResult(
        fine_fractions=list(fine_fractions),
        speedup=np.array(sp),
        makespan_sc_oc=np.array(ms_sc),
        makespan_mc_tl=np.array(ms_mc),
    )


def metrics(r: DistributionSweepResult) -> dict[str, float]:
    """Speedup per fine-cell percentage, and its extremes."""
    out = {
        f"speedup_at_{100 * f:g}pct": sp
        for f, sp in zip(r.fine_fractions, r.speedup)
    }
    out["min_speedup"] = r.speedup.min()
    out["max_speedup"] = r.speedup.max()
    return out


def report(r: DistributionSweepResult) -> str:
    """Tabulate the sweep."""
    lines = [
        "fine fraction: "
        + "  ".join(f"{f:>6.2f}" for f in r.fine_fractions),
        "speedup      : "
        + "  ".join(f"{v:>6.2f}" for v in r.speedup),
        "SC_OC        : "
        + "  ".join(f"{v:>6.0f}" for v in r.makespan_sc_oc),
        "MC_TL        : "
        + "  ".join(f"{v:>6.0f}" for v in r.makespan_mc_tl),
    ]
    return "\n".join(lines)
