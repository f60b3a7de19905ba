"""Mesh → dual graph conversion.

"The first step in FLUSEPA is to generate a graph from the mesh, where
vertices represent cells and edges their associated faces" (paper §V).
This module performs exactly that conversion; the vertex weights are
supplied by the partitioning strategy (operating costs for SC_OC,
binary level-indicator vectors for MC_TL).

The cell–cell CSR adjacency is *streamed* from the faces: a chunked
two-pass count/fill scheme over face windows of
:data:`DEFAULT_CHUNK_FACES` that never materializes the full face
table (at paper scale, 6.4M cells ≈ 13M interior faces, the six
O(2·faces) int64 scratch arrays of a global sort would dominate the
chain's memory high-water).  Pass 1 accumulates per-cell degrees,
pass 2 streams the faces twice (a→b direction first, then b→a) and
scatters each chunk's entries through per-cell fill cursors, computing
area edge weights as it goes.  Within a chunk a stable sort by source
cell plus a run-rank offset reproduces, entry for entry, the global
stable argsort of :meth:`~repro.mesh.structures.Mesh.cell_adjacency`,
the reference the tests and the fuzz harness compare against, so the
two are **bit-identical** (pinned by ``tests/golden/chain_outputs.json``).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .structures import Mesh

__all__ = ["mesh_to_dual_graph", "DEFAULT_CHUNK_FACES"]

#: Faces per streamed window (matches the mesh builders' cell chunk).
#: Any positive value yields the same graph.
DEFAULT_CHUNK_FACES = 1 << 17


def _streaming_adjacency(
    mesh: Mesh,
    *,
    edge_weight: str,
    chunk_faces: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunked two-pass construction of ``(xadj, adjncy, adjwgt)``.

    Bit-identity with :meth:`Mesh.cell_adjacency`: it stable-sorts
    ``src = concat([a, b])``, so cell ``c``'s row lists its a-side
    entries in interior-face order followed by its b-side entries in
    interior-face order.  Streaming all faces in the a→b direction
    first and then b→a, in ascending face windows, visits entries in
    exactly that order; the per-chunk stable sort by source plus a
    run-rank offset places ties in face order, and the persistent
    per-cell cursors carry the row positions across chunks and sweeps.
    """
    n = mesh.num_cells
    m = mesh.num_faces
    fc = mesh.face_cells
    chunk = max(1, int(chunk_faces))

    # Pass 1: per-cell degree counts (both endpoints of every interior
    # face), accumulated chunk by chunk into the future xadj.
    xadj = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, m, chunk):
        cells = fc[start : start + chunk]
        touched = cells[cells[:, 1] >= 0].ravel()
        if len(touched):
            cnt = np.bincount(touched)
            xadj[1 : len(cnt) + 1] += cnt
    np.cumsum(xadj, out=xadj)

    nnz = int(xadj[-1])
    adjncy = np.empty(nnz, dtype=np.int64)
    area = edge_weight == "area"
    if area:
        adjwgt = np.empty(nnz, dtype=np.float64)
    else:
        adjwgt = np.ones(nnz, dtype=np.float64)

    # Pass 2: two directional sweeps (a→b, then b→a) over the same
    # ascending face windows; ``cursor`` persists across both.
    cursor = xadj[:-1].copy()
    for side in (0, 1):
        for start in range(0, m, chunk):
            cells = fc[start : start + chunk]
            mask = cells[:, 1] >= 0
            s = cells[mask, side]
            if len(s) == 0:
                continue
            d = cells[mask, 1 - side]
            order = np.argsort(s, kind="stable")
            ss = s[order]
            first = np.ones(len(ss), dtype=bool)
            first[1:] = ss[1:] != ss[:-1]
            starts = np.flatnonzero(first)
            # Rank of each entry inside its equal-source run: stable
            # sort keeps runs in face order, so cursor + rank is the
            # exact slot the global stable argsort would assign.
            rank = np.arange(len(ss), dtype=np.int64) - np.repeat(
                starts, np.diff(np.append(starts, len(ss)))
            )
            pos = cursor[ss] + rank
            adjncy[pos] = d[order]
            if area:
                fidx = start + np.flatnonzero(mask)
                adjwgt[pos] = mesh.face_area[fidx[order]]
            cursor[ss[first]] += np.diff(np.append(starts, len(ss)))
    return xadj, adjncy, adjwgt


def mesh_to_dual_graph(
    mesh: Mesh,
    *,
    vwgt: np.ndarray | None = None,
    edge_weight: str = "unit",
) -> CSRGraph:
    """Build the dual graph of a mesh.

    Parameters
    ----------
    vwgt:
        Optional vertex (cell) weights, ``(n,)`` or ``(n, ncon)``.
    edge_weight:
        ``"unit"`` — every face counts 1 (communication ∝ number of
        faces, the paper's model); ``"area"`` — weight by face area
        (communication ∝ interface size).

    Returns
    -------
    :class:`~repro.graph.csr.CSRGraph` whose vertex ``i`` is cell ``i``
    and whose edges are the interior faces, streamed from the faces.
    """
    if edge_weight not in ("unit", "area"):
        raise ValueError(f"unknown edge_weight {edge_weight!r}")
    xadj, adjncy, adjwgt = _streaming_adjacency(
        mesh, edge_weight=edge_weight, chunk_faces=DEFAULT_CHUNK_FACES
    )
    return CSRGraph(xadj, adjncy, vwgt=vwgt, adjwgt=adjwgt)
