"""Seed V-cycle scalar kernels, one NumPy scalar per element touched.

These are the loops ``repro.graph.coarsen._matching_fallback``,
``repro.graph.initial.greedy_graph_growing`` and
``repro.graph.refine.rebalance`` ran before they moved onto typed
buffer views, kept verbatim as the oracle: the rewritten kernels must
reproduce their matchings and labels exactly (same IEEE operations on
the same widened values, so ``array_equal``), on wide and on narrowed
graphs alike.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graph.csr import CSRGraph

_INF = float("inf")


def _degrees(g: CSRGraph, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Internal/external degrees of every vertex w.r.t. a bisection."""
    n = g.num_vertices
    src = g.edge_sources()
    same = part[src] == part[g.adjncy]
    w = g.adjwgt
    ideg = np.bincount(src[same], weights=w[same], minlength=n)
    edeg = np.bincount(src[~same], weights=w[~same], minlength=n)
    return ideg, edeg


def _matching_fallback(
    g: CSRGraph,
    match: np.ndarray,
    candidates: np.ndarray,
    rng: np.random.Generator,
    multi: bool,
) -> None:
    """Greedy per-vertex matching over the remaining ``candidates``.

    Invoked on the small tail left after the vectorized proposal rounds
    (or when a round makes no progress on an adversarial tie pattern);
    guarantees termination with the same semantics as the seed loop.
    """
    xadj, adjncy, adjwgt, vwgt = g.xadj, g.adjncy, g.adjwgt, g.vwgt
    if vwgt.dtype != np.float64:
        # Compare spreads in float64 so narrowed graphs match the wide
        # path bit for bit.
        vwgt = vwgt.astype(np.float64)
    for v in candidates[rng.permutation(len(candidates))]:
        if match[v] != v:
            continue
        best = -1
        best_w = -np.inf
        best_spread = np.inf
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if match[u] != u or u == v:
                continue
            w = float(adjwgt[idx])
            if multi:
                if w > best_w + 1e-12:
                    combined = vwgt[v] + vwgt[u]
                    best, best_w = u, w
                    best_spread = float(combined.max() - combined.min())
                elif w > best_w - 1e-12:
                    combined = vwgt[v] + vwgt[u]
                    spread = float(combined.max() - combined.min())
                    if spread < best_spread:
                        best, best_w, best_spread = u, w, spread
            else:
                if w > best_w:
                    best, best_w = u, w
        if best >= 0:
            match[v] = best
            match[best] = v


def greedy_graph_growing(
    g: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
    *,
    seed_vertex: int | None = None,
) -> np.ndarray:
    """Grow part 0 from a seed until every constraint reaches
    ``target_frac`` of its total weight.

    Returns a ``(n,)`` int32 array of 0/1 part labels.  The growth
    frontier is a max-heap on cut gain; among the frontier we always
    take the vertex with the highest gain whose addition does not
    overshoot *all* constraints (overshooting some is unavoidable with
    discrete weights).
    """
    n = g.num_vertices
    total = g.total_vwgt()
    want = total * target_frac
    part = np.ones(n, dtype=np.int32)
    acc = np.zeros(g.ncon, dtype=np.float64)

    seed = int(seed_vertex) if seed_vertex is not None else int(rng.integers(n))
    # gain[v] = (weight of edges from v into part0) - (edges to part1)
    gain = np.full(n, -np.inf)
    in_heap = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int, int]] = []
    counter = 0

    def push(v: int, gval: float) -> None:
        nonlocal counter
        heapq.heappush(heap, (-gval, counter, v))
        counter += 1
        gain[v] = gval
        in_heap[v] = True

    def grow(v: int) -> None:
        nonlocal acc
        part[v] = 0
        acc = acc + g.vwgt[v]
        for idx in range(g.xadj[v], g.xadj[v + 1]):
            u = g.adjncy[idx]
            if part[u] == 0:
                continue
            # Recompute u's gain: edges to part0 minus edges to part1.
            # Accumulate in float64 via Python floats so narrowed
            # (float32) edge weights give bit-identical gains.
            to0 = 0.0
            to1 = 0.0
            for j in range(g.xadj[u], g.xadj[u + 1]):
                t = g.adjncy[j]
                if part[t] == 0:
                    to0 += float(g.adjwgt[j])
                else:
                    to1 += float(g.adjwgt[j])
            push(u, to0 - to1)

    grow(seed)
    # Under-filled means some constraint below target.
    while np.any(acc < want):
        v = -1
        while heap:
            negg, _, cand = heapq.heappop(heap)
            if part[cand] == 1 and -negg == gain[cand]:
                v = cand
                break
        if v < 0:
            # Frontier exhausted (disconnected graph): jump to a random
            # vertex still in part 1.
            remaining = np.flatnonzero(part == 1)
            if len(remaining) == 0:
                break
            v = int(remaining[rng.integers(len(remaining))])
        grow(v)
    return part


def rebalance(
    g: CSRGraph,
    part: np.ndarray,
    *,
    target_frac: float = 0.5,
    imbalance_tol: float = 1.05,
    max_moves: int | None = None,
) -> np.ndarray:
    """Repair an infeasible bisection by explicit balancing moves.

    For each violating (part, constraint) pair — worst first — the
    vertex in the overweight part carrying weight on that constraint
    with the least cut damage is moved out, until the pair is within
    tolerance.  Each vertex moves at most once per call, which
    guarantees termination even when coarse vertices carry weight on
    several constraints.  Used when FM alone cannot reach feasibility
    (e.g. after projecting a coarse partition onto a finer graph).
    """
    n = g.num_vertices
    total = g.total_vwgt()
    targets = np.array([target_frac, 1.0 - target_frac])
    pw = np.empty((2, g.ncon), dtype=np.float64)
    for c in range(g.ncon):
        pw[:, c] = np.bincount(part, weights=g.vwgt[:, c], minlength=2)
    if max_moves is None:
        max_moves = n

    ideg, edeg = _degrees(g, part)
    locked = np.zeros(n, dtype=bool)
    moves = 0

    def ratio(p: int, c: int) -> float:
        denom = total[c] * targets[p]
        if denom <= 0:
            return _INF if pw[p, c] > 0 else 1.0
        return pw[p, c] / denom

    def worst_pair() -> tuple[float, int, int]:
        w, wp, wc = 1.0, -1, -1
        for c in range(g.ncon):
            if total[c] <= 0:
                continue
            for p in (0, 1):
                r = ratio(p, c)
                if r > w:
                    w, wp, wc = r, p, c
        return w, wp, wc

    while moves < max_moves:
        worst, src_p, c = worst_pair()
        if worst <= imbalance_tol or src_p < 0:
            break
        dst_p = 1 - src_p
        cand = np.flatnonzero(
            (part == src_p) & ~locked & (g.vwgt[:, c] > 0)
        )
        if len(cand) == 0:
            break
        gains = edeg[cand] - ideg[cand]
        # Among the best-gain candidates, prefer the one whose weight is
        # most concentrated on the violating constraint (so the move
        # does not overfill the destination on other constraints).
        best_gain = gains.max()
        top = cand[gains >= best_gain - 1e-12]
        # float64 arithmetic so narrowed (float32) weights pick the
        # same candidate as the wide path.
        vtop = g.vwgt[top].astype(np.float64, copy=False)
        purity = vtop[:, c] / np.maximum(vtop.sum(axis=1), 1e-300)
        v = int(top[np.argmax(purity)])

        part[v] = dst_p
        pw[src_p] -= g.vwgt[v]
        pw[dst_p] += g.vwgt[v]
        locked[v] = True
        moves += 1
        # Incremental internal/external degree updates around v.
        for idx in range(g.xadj[v], g.xadj[v + 1]):
            u = g.adjncy[idx]
            w = g.adjwgt[idx]
            if part[u] == dst_p:
                ideg[u] += w
                edeg[u] -= w
            else:
                ideg[u] -= w
                edeg[u] += w
        # v itself: recompute from neighbours.
        same = part[g.adjncy[g.xadj[v] : g.xadj[v + 1]]] == dst_p
        wv = g.adjwgt[g.xadj[v] : g.xadj[v + 1]]
        ideg[v] = float(wv[same].sum(dtype=np.float64))
        edeg[v] = float(wv[~same].sum(dtype=np.float64))
    return part
