"""Extension study — the phenomenon on a true 3D octree mesh.

The 2D quadtree replicas reproduce the paper's τ-distributions, but
the original meshes are 3D: cells have ~6+ neighbours and level
classes have different surface/volume scaling.  This study rebuilds
the full pipeline on a 3D octree CYLINDER-like mesh and checks that
the SC_OC pathology and the MC_TL remedy are dimension-independent —
everything downstream of the dual graph already is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import ClusterConfig, simulate, subiteration_balance
from ..mesh.octree import octree_cylinder_mesh
from ..partitioning import make_decomposition
from ..taskgraph import generate_task_graph
from ..temporal import levels_from_depth

__all__ = ["Octree3DResult", "run", "report", "CLAIMS"]

#: MC_TL wins in 3D too, by fixing the per-subiteration balance.
CLAIMS = (
    "speedup > 1.2",
    "worst_subiteration_imbalance_mc_tl < worst_subiteration_imbalance_sc_oc",
)


@dataclass
class Octree3DResult:
    """3D-mesh comparison of the two strategies."""

    num_cells: int
    makespan_sc_oc: float
    makespan_mc_tl: float
    speedup: float
    worst_subiteration_imbalance_sc_oc: float
    worst_subiteration_imbalance_mc_tl: float


def run(
    *,
    max_depth: int = 7,
    domains: int = 16,
    processes: int = 8,
    cores: int = 8,
    seed: int = 0,
) -> Octree3DResult:
    """Run SC_OC vs MC_TL on the 3D octree cylinder."""
    mesh, _ = octree_cylinder_mesh(max_depth=max_depth)
    tau = levels_from_depth(mesh, num_levels=4)
    cluster = ClusterConfig(processes, cores)
    spans = {}
    imb = {}
    for strategy in ("SC_OC", "MC_TL"):
        decomp = make_decomposition(
            mesh, tau, domains, processes, strategy=strategy, seed=seed
        )
        dag = generate_task_graph(mesh, tau, decomp)
        spans[strategy] = simulate(dag, cluster, seed=seed).makespan
        imb[strategy] = float(subiteration_balance(dag, processes).max())
    return Octree3DResult(
        num_cells=mesh.num_cells,
        makespan_sc_oc=spans["SC_OC"],
        makespan_mc_tl=spans["MC_TL"],
        speedup=spans["SC_OC"] / spans["MC_TL"],
        worst_subiteration_imbalance_sc_oc=imb["SC_OC"],
        worst_subiteration_imbalance_mc_tl=imb["MC_TL"],
    )


def report(r: Octree3DResult) -> str:
    """Summary of the 3D comparison."""
    return (
        f"3D octree cylinder ({r.num_cells} cells): SC_OC "
        f"{r.makespan_sc_oc:.0f} → MC_TL {r.makespan_mc_tl:.0f} "
        f"(×{r.speedup:.2f}); worst per-subiteration imbalance "
        f"{r.worst_subiteration_imbalance_sc_oc:.1f} → "
        f"{r.worst_subiteration_imbalance_mc_tl:.1f}"
    )
