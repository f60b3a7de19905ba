"""Mesh → dual graph conversion.

"The first step in FLUSEPA is to generate a graph from the mesh, where
vertices represent cells and edges their associated faces" (paper §V).
This module performs exactly that conversion; the vertex weights are
supplied by the partitioning strategy (operating costs for SC_OC,
binary level-indicator vectors for MC_TL).

Two engines build the cell–cell CSR adjacency:

* ``"materialized"`` — :meth:`~repro.mesh.structures.Mesh.cell_adjacency`:
  concatenate both directions of every interior face and stable-sort
  the whole table.  Simple, but at paper scale (6.4M cells ≈ 13M
  interior faces) the six O(2·faces) int64 scratch arrays of the sort
  dominate the chain's memory high-water.
* ``"streaming"`` (the default) — a chunked two-pass count/fill scheme
  over fixed-size face windows that never materializes the full face
  table: pass 1 accumulates per-cell degrees, pass 2 streams the faces
  twice (a→b direction first, then b→a) and scatters each chunk's
  entries through per-cell fill cursors.  Within a chunk a stable sort
  by source cell plus a run-rank offset reproduces, entry for entry,
  the global stable argsort of the materialized path — the two engines
  are **bit-identical** (the same guarantee, verified the same way, as
  the chunked mesh engine vs its object oracle).

The streaming engine also fills ``adjncy`` directly in the narrowed
index dtype and computes area edge weights in the fill pass, so the
wide int64 adjacency and the ``face_of`` table are never held at all.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .structures import Mesh

__all__ = ["mesh_to_dual_graph", "resolve_dual_engine", "DEFAULT_CHUNK_FACES"]

#: Default number of faces per streamed window (matches the chunked
#: mesh engine's cell granularity).
DEFAULT_CHUNK_FACES = 1 << 17


def resolve_dual_engine(engine: str | None) -> str:
    """Resolve the dual-construction ``engine`` knob.

    ``None`` means ``"streaming"``; ``"materialized"`` is the oracle
    path through :meth:`~repro.mesh.structures.Mesh.cell_adjacency`.
    """
    engine = "streaming" if engine is None else engine.lower()
    if engine not in ("streaming", "materialized"):
        raise ValueError(
            f"unknown dual engine {engine!r} (expected 'streaming' or "
            "'materialized')"
        )
    return engine


def _resolve_index_dtype(index_dtype, num_cells: int):
    """Normalize the ``index_dtype`` knob (``"auto"`` → int32 when the
    cell count provably fits)."""
    if isinstance(index_dtype, str) and index_dtype == "auto":
        return np.int32 if num_cells <= np.iinfo(np.int32).max else None
    return index_dtype


def _streaming_adjacency(
    mesh: Mesh,
    *,
    index_dtype,
    edge_weight: str,
    weight_dtype,
    chunk_faces: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunked two-pass construction of ``(xadj, adjncy, adjwgt)``.

    Bit-identity with the materialized path: that path stable-sorts
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
    adjncy = np.empty(nnz, dtype=index_dtype or np.int64)
    area = edge_weight == "area"
    if area:
        adjwgt = np.empty(nnz, dtype=weight_dtype or np.float64)
    else:
        adjwgt = np.ones(nnz, dtype=weight_dtype or np.float64)

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
    index_dtype: np.dtype | type | str | None = None,
    weight_dtype: np.dtype | type | None = None,
    engine: str | None = None,
    chunk_faces: int | None = None,
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
    index_dtype:
        Storage dtype for ``adjncy`` — e.g. ``np.int32`` for the scale
        tier, or ``"auto"`` to narrow whenever the cell count provably
        fits int32.  ``None`` keeps int64.
    weight_dtype:
        Optional storage dtype for ``adjwgt`` (e.g. ``np.float32``).
        Narrowing is a storage decision only: the partitioner
        accumulates in float64 either way.
    engine:
        ``"streaming"`` (chunked two-pass builder, the default) or
        ``"materialized"`` (the :meth:`Mesh.cell_adjacency` oracle).
        Both engines produce bit-identical graphs.  A mesh whose
        adjacency cache is already warm is served from the cache
        unless an engine was requested explicitly.
    chunk_faces:
        Faces per streamed window (streaming engine only); defaults to
        :data:`DEFAULT_CHUNK_FACES`.  Any positive value — including
        non-powers-of-two — yields the same graph.

    Returns
    -------
    :class:`~repro.graph.csr.CSRGraph` whose vertex ``i`` is cell ``i``
    and whose edges are the interior faces.
    """
    if edge_weight not in ("unit", "area"):
        raise ValueError(f"unknown edge_weight {edge_weight!r}")
    explicit = engine is not None
    resolved = resolve_dual_engine(engine)
    index_dtype = _resolve_index_dtype(index_dtype, mesh.num_cells)

    if resolved == "streaming" and (explicit or mesh._adjacency is None):
        xadj, adjncy, adjwgt = _streaming_adjacency(
            mesh,
            index_dtype=index_dtype,
            edge_weight=edge_weight,
            weight_dtype=weight_dtype,
            chunk_faces=chunk_faces or DEFAULT_CHUNK_FACES,
        )
        return CSRGraph(xadj, adjncy, vwgt=vwgt, adjwgt=adjwgt)

    xadj, adjncy, face_of = mesh.cell_adjacency()
    if index_dtype is not None:
        adjncy = adjncy.astype(index_dtype, copy=False)
    if edge_weight == "unit":
        adjwgt = np.ones(len(adjncy), dtype=weight_dtype or np.float64)
    else:
        adjwgt = mesh.face_area[face_of].astype(weight_dtype or np.float64)
    return CSRGraph(xadj, adjncy, vwgt=vwgt, adjwgt=adjwgt)
