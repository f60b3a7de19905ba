"""Kernels — each stage of the chain once, checked for sane output.

Mesh generation, the dual graph, both partitions, the task graph,
FLUSIM, the critical path and the operating costs.  The benchmark
(``bench/run.py``) times them; this row keeps what each must return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import ClusterConfig, simulate
from ..mesh import cube_mesh, mesh_to_dual_graph
from ..partitioning import make_decomposition, mc_tl_partition, sc_oc_partition
from ..taskgraph import generate_task_graph
from ..temporal import levels_from_depth, operating_costs

__all__ = ["ComponentsResult", "run", "CLAIMS"]

#: Every kernel returns a well-formed result.
CLAIMS = (
    "small_mesh_cells > 1000",
    "dual_vertices == cells",
    "sc_oc_parts == 16",
    "mc_tl_parts == 16",
    "tasks > 0",
    "makespan > 0",
    "critical_path > 0",
    "min_operating_cost >= 1.0",
)


@dataclass
class ComponentsResult:
    """One output figure per kernel."""

    small_mesh_cells: int  # a cube mesh one level shallower
    cells: int
    dual_vertices: int
    sc_oc_parts: int
    mc_tl_parts: int
    tasks: int
    makespan: float
    critical_path: float
    min_operating_cost: float


def run(*, scale: int = 9, seed: int = 0) -> ComponentsResult:
    """Run each kernel once on the ``scale``-deep CUBE (16 domains on
    4 processes × 8 cores)."""
    small = cube_mesh(max_depth=scale - 1)
    mesh = cube_mesh(max_depth=scale)
    tau = levels_from_depth(mesh, num_levels=4)
    graph = mesh_to_dual_graph(mesh)
    partitions = {"SC_OC": sc_oc_partition, "MC_TL": mc_tl_partition}
    parts = {
        name: len(np.unique(fn(mesh, tau, 16, seed=seed)))
        for name, fn in partitions.items()
    }
    decomp = make_decomposition(mesh, tau, 16, 4, strategy="MC_TL", seed=seed)
    dag = generate_task_graph(mesh, tau, decomp)
    trace = simulate(dag, ClusterConfig(4, 8))
    return ComponentsResult(
        small_mesh_cells=small.num_cells,
        cells=mesh.num_cells,
        dual_vertices=graph.num_vertices,
        sc_oc_parts=parts["SC_OC"],
        mc_tl_parts=parts["MC_TL"],
        tasks=dag.num_tasks,
        makespan=float(trace.makespan),
        critical_path=float(dag.critical_path()[0]),
        min_operating_cost=float(operating_costs(tau).min()),
    )
