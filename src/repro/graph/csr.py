"""Compressed sparse row (CSR) graph structure.

All graph algorithms in :mod:`repro.graph` operate on this structure.
It mirrors the METIS input format: an undirected graph is stored as a
pair of flat arrays ``(xadj, adjncy)`` where the neighbours of vertex
``v`` are ``adjncy[xadj[v]:xadj[v+1]]``, plus optional edge weights
``adjwgt`` aligned with ``adjncy`` and vertex weights ``vwgt`` of shape
``(n, ncon)`` — one column per balance constraint.

Storing every array contiguously keeps the hot partitioning loops
(`matching`, `FM refinement`) cache-friendly and lets most operations
vectorize with NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["CSRGraph", "graph_from_edges", "validate_csr"]


def _as_index_array(a) -> np.ndarray:
    """Contiguous int64 index array."""
    return np.ascontiguousarray(a, dtype=np.int64)


def _as_weight_array(a) -> np.ndarray:
    """Contiguous float64 weight array."""
    return np.ascontiguousarray(a, dtype=np.float64)


@dataclass
class CSRGraph:
    """An undirected graph in CSR (adjacency-list) form.

    One storage format: indices are int64 and weights float64, and
    input of any other dtype is converted at construction.

    Parameters
    ----------
    xadj:
        ``(n+1,)`` int64 array of row pointers; ``xadj[0] == 0`` and
        ``xadj[-1] == len(adjncy)``.
    adjncy:
        ``(m,)`` int64 array of neighbour indices.  Each undirected edge
        ``{u, v}`` appears twice: once in ``u``'s row and once in
        ``v``'s.
    vwgt:
        ``(n, ncon)`` float64 vertex weights — one column per balance
        constraint.  Defaults to all-ones with a single constraint.
    adjwgt:
        ``(m,)`` float64 edge weights aligned with ``adjncy``.  Defaults
        to all-ones.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    vwgt: np.ndarray = field(default=None)  # type: ignore[assignment]
    adjwgt: np.ndarray = field(default=None)  # type: ignore[assignment]
    # Lazily computed derived arrays shared by the hot partitioning
    # kernels; CSRGraph structure is treated as immutable after
    # construction, so caching is safe.
    _degrees: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _edge_sources: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _weighted_degrees: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.xadj = _as_index_array(self.xadj)
        self.adjncy = _as_index_array(self.adjncy)
        n = self.num_vertices
        if self.vwgt is None:
            self.vwgt = np.ones((n, 1), dtype=np.float64)
        else:
            vwgt = _as_weight_array(self.vwgt)
            if vwgt.ndim == 1:
                vwgt = vwgt.reshape(n, 1)
            self.vwgt = vwgt
        if self.adjwgt is None:
            self.adjwgt = np.ones(len(self.adjncy), dtype=np.float64)
        else:
            self.adjwgt = _as_weight_array(self.adjwgt)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self.xadj) - 1

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges (each stored twice in CSR)."""
        return len(self.adjncy) // 2

    @property
    def ncon(self) -> int:
        """Number of balance constraints (columns of ``vwgt``)."""
        return self.vwgt.shape[1]

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (cached; do not mutate)."""
        if self._degrees is None:
            self._degrees = np.diff(self.xadj)
        return self._degrees

    def edge_sources(self) -> np.ndarray:
        """``(m,)`` source vertex of every directed CSR edge, i.e. the
        row index aligned with :attr:`adjncy` (cached; do not mutate).

        Coarsening, refinement and the partition metrics all need this
        ``np.repeat`` expansion; computing it once per graph keeps it
        off the hot path.
        """
        if self._edge_sources is None:
            self._edge_sources = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64),
                self.degrees(),
            )
        return self._edge_sources

    def weighted_degrees(self) -> np.ndarray:
        """``(n,)`` float64 total edge weight of every vertex, summed in
        CSR order (cached; do not mutate).

        Graph growing, FM and ``rebalance`` keep one gain per vertex
        (external minus internal weight); this is the constant the
        gains are offset from.
        """
        if self._weighted_degrees is None:
            self._weighted_degrees = np.bincount(
                self.edge_sources(),
                weights=self.adjwgt,
                minlength=self.num_vertices,
            ).astype(np.float64, copy=False)
        return self._weighted_degrees

    def scalar_views(
        self,
    ) -> tuple[memoryview, memoryview, memoryview, list[memoryview]]:
        """``(xadj, adjncy, adjwgt, vwgt columns)`` as ``memoryview``s,
        for the kernels that walk the graph one element at a time.

        Indexing a ``memoryview`` is C-typed element access that hands
        a Python loop an ``int``/``float``: no NumPy scalar is built
        per read, nothing is copied or boxed the way
        ``ndarray.tolist()`` boxes it (8 B per element already in RAM
        against a 32-40 B heap object each), and read-only mmap'd
        levels work as they are.
        """
        return (
            memoryview(self.xadj),
            memoryview(self.adjncy),
            memoryview(self.adjwgt),
            [memoryview(self.vwgt[:, c]) for c in range(self.ncon)],
        )

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour indices of vertex ``v`` (a CSR view, do not mutate)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights of the edges incident to ``v``, aligned with
        :meth:`neighbors`."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def total_vwgt(self) -> np.ndarray:
        """Sum of vertex weights per constraint, shape ``(ncon,)``."""
        return self.vwgt.sum(axis=0)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def total_edge_weight(self) -> float:
        """Total weight over undirected edges (each counted once)."""
        return float(self.adjwgt.sum()) / 2.0

    def with_vwgt(self, vwgt: np.ndarray) -> "CSRGraph":
        """Return a shallow copy of the graph with new vertex weights."""
        g = CSRGraph(self.xadj, self.adjncy, vwgt=vwgt, adjwgt=self.adjwgt)
        # The structure is shared, so the derived caches are too.
        g._degrees = self._degrees
        g._edge_sources = self._edge_sources
        g._weighted_degrees = self._weighted_degrees
        return g

    def subgraph(self, vertices: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Extract the induced subgraph on ``vertices``.

        Returns ``(sub, mapping)`` where ``mapping`` maps subgraph
        vertex index -> original vertex index.  Edges to vertices
        outside the set are dropped.
        """
        vertices = _as_index_array(vertices)
        local = np.full(self.num_vertices, -1, dtype=np.int64)
        local[vertices] = np.arange(len(vertices), dtype=np.int64)

        # Gather all candidate edges from the selected rows.
        starts = self.xadj[vertices]
        counts = self.degrees()[vertices]
        # Build a flat index into adjncy selecting the rows of `vertices`
        # without a per-row Python loop: within each row the flat index
        # is `start + offset_in_row`.
        row_of = np.repeat(np.arange(len(vertices)), counts)
        total = int(counts.sum())
        offs = np.cumsum(counts) - counts
        flat = (
            np.arange(total, dtype=np.int64) + np.repeat(starts - offs, counts)
            if len(vertices)
            else np.empty(0, dtype=np.int64)
        )
        nbr = self.adjncy[flat]
        wgt = self.adjwgt[flat]
        keep = local[nbr] >= 0
        row_of = row_of[keep]
        nbr_local = local[nbr[keep]]
        wgt = wgt[keep]

        # `row_of` is already non-decreasing (rows were gathered in
        # order), so the kept edges are grouped per subgraph row.
        new_xadj = np.zeros(len(vertices) + 1, dtype=np.int64)
        new_xadj[1:] = np.bincount(row_of, minlength=len(vertices))
        np.cumsum(new_xadj, out=new_xadj)
        sub = CSRGraph(
            new_xadj,
            nbr_local,
            vwgt=self.vwgt[vertices].copy(),
            adjwgt=wgt,
        )
        return sub, vertices

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"ncon={self.ncon})"
        )


def graph_from_edges(
    n: int,
    edges: np.ndarray,
    *,
    vwgt: np.ndarray | None = None,
    ewgt: np.ndarray | None = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an edge list.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        ``(m, 2)`` array of undirected edges (each pair listed once).
        Self-loops are rejected; duplicate pairs have their weights
        summed.
    vwgt / ewgt:
        Optional vertex weights (``(n,)`` or ``(n, ncon)``) and edge
        weights ``(m,)``.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) and (edges.min() < 0 or edges.max() >= n):
        raise ValueError("edge endpoint out of range")
    if len(edges) and np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("self-loops are not allowed")
    if ewgt is None:
        ewgt = np.ones(len(edges), dtype=np.float64)
    else:
        ewgt = np.asarray(ewgt, dtype=np.float64)
        if len(ewgt) != len(edges):
            raise ValueError("ewgt length mismatch")

    # Deduplicate: canonicalize (min, max) and sum weights of duplicates.
    if len(edges):
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        key = lo * np.int64(n) + hi
        uniq, inv = np.unique(key, return_inverse=True)
        w = np.bincount(inv, weights=ewgt, minlength=len(uniq))
        lo = (uniq // n).astype(np.int64)
        hi = (uniq % n).astype(np.int64)
    else:
        lo = hi = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.float64)

    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    wboth = np.concatenate([w, w])
    order = np.argsort(src, kind="stable")
    src, dst, wboth = src[order], dst[order], wboth[order]

    xadj = np.zeros(n + 1, dtype=np.int64)
    xadj[1:] = np.bincount(src, minlength=n)
    np.cumsum(xadj, out=xadj)
    return CSRGraph(xadj, dst, vwgt=vwgt, adjwgt=wboth)


def validate_csr(g: CSRGraph) -> None:
    """Raise :class:`ValueError` if the CSR structure is inconsistent.

    Checks monotone row pointers, index bounds, absence of self-loops,
    and symmetry of the adjacency structure and edge weights.
    """
    n = g.num_vertices
    if g.xadj[0] != 0 or g.xadj[-1] != len(g.adjncy):
        raise ValueError("xadj endpoints inconsistent with adjncy length")
    if np.any(np.diff(g.xadj) < 0):
        raise ValueError("xadj must be non-decreasing")
    if len(g.adjncy) and (g.adjncy.min() < 0 or g.adjncy.max() >= n):
        raise ValueError("adjncy index out of range")
    if len(g.adjwgt) != len(g.adjncy):
        raise ValueError("adjwgt length mismatch")
    if g.vwgt.shape[0] != n:
        raise ValueError("vwgt row count mismatch")
    src = g.edge_sources()
    if np.any(src == g.adjncy):
        raise ValueError("self-loop present")
    # Symmetry: the multiset of (min,max,weight) must pair up evenly.
    lo = np.minimum(src, g.adjncy)
    hi = np.maximum(src, g.adjncy)
    key = lo * np.int64(n) + hi
    order = np.argsort(key, kind="stable")
    k = key[order]
    w = g.adjwgt[order]
    if len(k) % 2 != 0:
        raise ValueError("odd number of directed edges; graph not symmetric")
    if np.any(k[0::2] != k[1::2]):
        raise ValueError("adjacency is not symmetric")
    if not np.allclose(w[0::2], w[1::2]):
        raise ValueError("edge weights are not symmetric")
