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

from .csr import CSRGraph

__all__ = [
    "edge_cut",
    "part_weights",
    "imbalance",
    "boundary_vertices",
    "parts_connected",
    "connected_components_of_part",
]


def edge_cut(g: CSRGraph, part: np.ndarray) -> float:
    """Total weight of cut edges (each undirected edge counted once).

    Streams the rows in :meth:`~repro.graph.csr.CSRGraph.row_windows`,
    so its transient is a window plus the cut edges' weights, and it
    neither builds nor caches ``g.edge_sources()``.  The cut weights
    are gathered in CSR order and summed once, so the total is the
    same float as a single whole-graph sum for any weights.
    """
    xadj, adjncy, adjwgt = g.xadj, g.adjncy, g.adjwgt
    degrees = g.degrees()
    picked = []
    for lo, hi in g.row_windows():
        e0, e1 = xadj[lo], xadj[hi]
        src_part = np.repeat(part[lo:hi], degrees[lo:hi])
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


def boundary_vertices(g: CSRGraph, part: np.ndarray) -> np.ndarray:
    """Indices of vertices adjacent to at least one other part."""
    src = g.edge_sources()
    is_cut = part[src] != part[g.adjncy]
    return np.unique(src[is_cut])


def connected_components_of_part(
    g: CSRGraph, part: np.ndarray, p: int
) -> int:
    """Number of connected components of the subgraph induced by part
    ``p`` (0 if the part is empty)."""
    members = np.flatnonzero(part == p)
    if len(members) == 0:
        return 0
    inpart = np.zeros(g.num_vertices, dtype=bool)
    inpart[members] = True
    seen = np.zeros(g.num_vertices, dtype=bool)
    ncomp = 0
    for start in members:
        if seen[start]:
            continue
        ncomp += 1
        stack = [int(start)]
        seen[start] = True
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if inpart[u] and not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
    return ncomp


def parts_connected(g: CSRGraph, part: np.ndarray, nparts: int) -> np.ndarray:
    """Boolean array: whether each part induces a connected subgraph.

    Empty parts are reported as connected (vacuously true).  The paper
    notes MC_TL often fails to keep domains connected — this metric
    quantifies that artifact (Section IX perspective).
    """
    out = np.ones(nparts, dtype=bool)
    for p in range(nparts):
        out[p] = connected_components_of_part(g, part, p) <= 1
    return out
