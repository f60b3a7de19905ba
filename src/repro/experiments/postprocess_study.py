"""Extension study — connectivity post-processing of MC_TL partitions.

Implements and evaluates the paper's concluding perspective: "develop
post-processing techniques to minimize the artifacts produced by
partitioners when constrained by many criteria — they tend to create
disconnected subdomains that increase the number of domain borders
and, thus, the number of communications and tasks."

The study partitions with MC_TL, runs the reconnection pass
(:func:`repro.graph.reconnect_parts`), and compares fragments,
communication volume, imbalance and simulated makespan before/after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import ClusterConfig, simulate, taskgraph_comm_volume
from ..graph import reconnect_parts
from ..mesh.dual import mesh_to_dual_graph
from ..partitioning import DomainDecomposition
from ..partitioning.strategies import _level_indicator_matrix, mc_tl_partition
from ..taskgraph import generate_task_graph
from .common import standard_case

__all__ = ["PostprocessResult", "run", "report", "CLAIMS"]

#: Fewer fragments, no more communication, bounded balance and makespan.
CLAIMS = (
    "fragments_after < fragments_before",
    "comm_after <= comm_before",
    "imbalance_after <= 1.30 + 1e-9",
    "makespan_after <= 1.3 * makespan_before",
)


@dataclass
class PostprocessResult:
    """Before/after metrics of the reconnection pass."""

    fragments_before: int
    fragments_after: int
    moved_vertices: int
    imbalance_before: float
    imbalance_after: float
    comm_before: int
    comm_after: int
    makespan_before: float
    makespan_after: float


def run(
    *,
    mesh_name: str = "cylinder",
    domains: int = 32,
    processes: int = 8,
    cores: int = 16,
    imbalance_tol: float = 1.30,
    scale: int | None = None,
    seed: int = 0,
) -> PostprocessResult:
    """Partition with MC_TL, reconnect, and compare."""
    mesh, tau = standard_case(mesh_name, scale=scale)
    part = mc_tl_partition(mesh, tau, domains, seed=seed)
    g = mesh_to_dual_graph(mesh, vwgt=_level_indicator_matrix(tau))
    res = reconnect_parts(g, part, domains, imbalance_tol=imbalance_tol)

    cluster = ClusterConfig(processes, cores)
    spans = []
    comms = []
    for labels in (part, res.part):
        decomp = DomainDecomposition.block_mapping(
            labels, domains, processes, strategy="MC_TL"
        )
        dag = generate_task_graph(mesh, tau, decomp)
        comms.append(taskgraph_comm_volume(dag))
        spans.append(simulate(dag, cluster, seed=seed).makespan)

    return PostprocessResult(
        fragments_before=res.fragments_before,
        fragments_after=res.fragments_after,
        moved_vertices=res.moved_vertices,
        imbalance_before=res.imbalance_before,
        imbalance_after=res.imbalance_after,
        comm_before=comms[0],
        comm_after=comms[1],
        makespan_before=float(spans[0]),
        makespan_after=float(spans[1]),
    )


def report(r: PostprocessResult) -> str:
    """One-paragraph before/after summary."""
    return (
        f"MC_TL reconnection pass: fragments {r.fragments_before} → "
        f"{r.fragments_after} ({r.moved_vertices} cells moved); "
        f"comm volume {r.comm_before} → {r.comm_after}; worst level "
        f"imbalance {r.imbalance_before:.2f} → {r.imbalance_after:.2f}; "
        f"makespan {r.makespan_before:.0f} → {r.makespan_after:.0f}"
    )
