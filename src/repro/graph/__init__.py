"""From-scratch multilevel graph partitioner (METIS substitute).

The paper implements its MC_TL strategy on top of METIS's
multi-constraint recursive bisection.  No METIS binding is available in
this environment, so this package provides the same algorithm family in
pure NumPy:

* :class:`~repro.graph.csr.CSRGraph` — METIS-style CSR graph with
  multi-column vertex weights (one column per balance constraint);
* heavy-edge-matching coarsening (:mod:`repro.graph.coarsen`);
* greedy-graph-growing initial bisection (:mod:`repro.graph.initial`);
* multi-constraint FM refinement (:mod:`repro.graph.refine`);
* the recursive-bisection driver
  (:func:`~repro.graph.partition.partition_graph`).
"""

from .contracts import (
    InputReport,
    PartitionQualityWarning,
    block_partition,
    check_partition_contract,
    connected_components,
    validate_partition_inputs,
)
from .csr import CSRGraph, graph_from_edges, validate_csr
from .metrics import (
    boundary_vertices,
    connected_components_of_part,
    edge_cut,
    imbalance,
    part_weights,
    parts_connected,
)
from .partition import (
    PartitionResult,
    partition_graph,
    recursive_bisection,
)
from .postprocess import ReconnectResult, part_components, reconnect_parts

__all__ = [
    "CSRGraph",
    "graph_from_edges",
    "validate_csr",
    "edge_cut",
    "imbalance",
    "part_weights",
    "boundary_vertices",
    "parts_connected",
    "connected_components_of_part",
    "PartitionResult",
    "partition_graph",
    "recursive_bisection",
    "PartitionQualityWarning",
    "InputReport",
    "validate_partition_inputs",
    "check_partition_contract",
    "connected_components",
    "block_partition",
    "ReconnectResult",
    "part_components",
    "reconnect_parts",
]
