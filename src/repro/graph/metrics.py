"""Quality metrics for graph partitions.

Definitions follow the METIS conventions:

* **edge cut** — total weight of edges whose endpoints lie in different
  parts (each undirected edge counted once);
* **imbalance** — for each constraint ``c``, ``max_p W_p[c] /
  (W_total[c] * target_p)`` where ``W_p`` is the part's weight; a value
  of 1.0 means perfect balance.
"""

from __future__ import annotations

import numpy as np

from .contracts import connected_components
from .csr import CSRGraph

__all__ = [
    "edge_cut",
    "part_weights",
    "imbalance",
    "parts_connected",
    "part_component_labels",
]


def edge_cut(g: CSRGraph, part: np.ndarray) -> float:
    """Total weight of cut edges (each undirected edge counted once).

    Streams the rows in :meth:`~repro.graph.csr.CSRGraph.row_windows`,
    so its transient is a window plus the cut edges' weights, and it
    builds neither ``g.edge_sources()`` nor ``g.degrees()``.  The cut
    weights are gathered in CSR order and summed once, so the total is
    the same float as a single whole-graph sum for any weights.
    """
    xadj, adjncy, adjwgt = g.xadj, g.adjncy, g.adjwgt
    picked = []
    for lo, hi in g.row_windows():
        e0, e1 = xadj[lo], xadj[hi]
        src_part = np.repeat(part[lo:hi], np.diff(xadj[lo : hi + 1]))
        cut = src_part != part[adjncy[e0:e1]]
        picked.append(adjwgt[e0:e1][cut])
    if not picked:
        return 0.0
    return float(np.concatenate(picked).sum()) / 2.0


def part_weights(g: CSRGraph, part: np.ndarray, nparts: int) -> np.ndarray:
    """Per-part constraint weights, shape ``(nparts, ncon)``."""
    w = np.empty((nparts, g.ncon), dtype=np.float64)
    for c in range(g.ncon):
        w[:, c] = np.bincount(part, weights=g.vwgt[:, c], minlength=nparts)
    return w


def imbalance(
    g: CSRGraph,
    part: np.ndarray,
    nparts: int,
    target: np.ndarray | None = None,
) -> np.ndarray:
    """Per-constraint load imbalance of a partition.

    Parameters
    ----------
    target:
        Optional ``(nparts,)`` array of target fractions per part
        (defaults to uniform ``1/nparts``).

    Returns
    -------
    ``(ncon,)`` array; entry ``c`` is the max over parts of
    ``W_p[c] / (total[c] * target_p)``.  Constraints with zero total
    weight report 1.0.
    """
    w = part_weights(g, part, nparts)
    total = g.total_vwgt()
    if target is None:
        target = np.full(nparts, 1.0 / nparts)
    target = np.asarray(target, dtype=np.float64)
    out = np.ones(g.ncon, dtype=np.float64)
    for c in range(g.ncon):
        if total[c] <= 0:
            continue
        ratios = w[:, c] / (total[c] * target)
        out[c] = float(ratios.max())
    return out


def part_component_labels(
    g: CSRGraph, part: np.ndarray
) -> tuple[np.ndarray, int]:
    """Connected components of every part's induced subgraph at once.

    :func:`~repro.graph.contracts.connected_components` of the graph
    without its cut edges: ``(labels, ncomp)``, components numbered in
    order of their smallest vertex, each inside one part.
    """
    n = g.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees())
    keep = part[src] == part[g.adjncy]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[keep], minlength=n), out=xadj[1:])
    return connected_components(CSRGraph(xadj, g.adjncy[keep]))


def parts_connected(g: CSRGraph, part: np.ndarray, nparts: int) -> np.ndarray:
    """Boolean array: whether each part induces a connected subgraph.

    Empty parts are reported as connected (vacuously true).  The paper
    notes MC_TL often fails to keep domains connected — this metric
    quantifies that artifact (Section IX perspective).
    """
    labels, _ = part_component_labels(g, part)
    first = np.unique(labels, return_index=True)[1]
    return np.bincount(part[first], minlength=nparts)[:nparts] <= 1
