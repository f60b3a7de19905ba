"""Earlier V-cycle scalar kernels, kept verbatim as the oracle.

``_matching_fallback``, ``greedy_graph_growing`` and ``rebalance`` are
the loops ``repro.graph.coarsen``, ``repro.graph.initial`` and
``repro.graph.refine`` ran before they moved onto typed buffer views,
one NumPy scalar per element touched.  ``_degrees``, ``fm_refine`` (with
its helpers) and ``best_initial_bisection`` are the versions that kept
separate internal/external degree arrays, rescanned a neighbour's
adjacency for every graph-growing gain and scored each trial with
``imbalance`` + ``edge_cut``.  The rewritten kernels must reproduce
their matchings and labels exactly (``array_equal``) wherever the
weights are integer or float32-valued.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import edge_cut, imbalance
from repro.resilience.errors import PartitionInternalError

_INF = float("inf")


def _degrees(g: CSRGraph, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Internal/external degrees of every vertex w.r.t. a bisection."""
    n = g.num_vertices
    src = g.edge_sources()
    same = part[src] == part[g.adjncy]
    w = g.adjwgt
    ideg = np.bincount(src[same], weights=w[same], minlength=n)
    edeg = np.bincount(src[~same], weights=w[~same], minlength=n)
    # bincount of an empty selection is int64 whatever the weights.
    return (
        ideg.astype(np.float64, copy=False),
        edeg.astype(np.float64, copy=False),
    )


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


def _one_hot_columns(vwgt: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(col, wcol)`` — each vertex's only nonzero constraint and its
    weight there — or ``None`` when some vertex carries weight on
    several constraints.  All-zero rows map to column 0, weight 0.
    ``vwgt`` must have at least one row.

    Works a column at a time: reductions along the short axis of the
    ``(n, ncon)`` array are an order of magnitude slower.
    """
    n, ncon = vwgt.shape
    nnz = np.zeros(n, dtype=np.int8)
    col = np.zeros(n, dtype=np.int64)
    # Adding the zeros of the other columns is exact, so the running
    # sum *is* the single nonzero entry.
    wcol = np.zeros(n, dtype=vwgt.dtype)
    for c in range(ncon):
        nz = vwgt[:, c] != 0
        nnz += nz
        col[nz] = c
        wcol += vwgt[:, c]
    if int(nnz.max()) > 1:
        return None
    return col, wcol


def _inv_denoms(
    total: np.ndarray, targets: np.ndarray
) -> tuple[list[float], list[float]]:
    """Per-(part, constraint) reciprocal balance denominators.

    A zero denominator (empty constraint or zero target) maps to 0.0 so
    the corresponding ratio contributes nothing; a zero target with
    positive weight is handled by the caller via the raw weights.
    """
    out0, out1 = [], []
    t0, t1 = targets.tolist()
    for tc in total.tolist():
        d0 = tc * t0
        d1 = tc * t1
        out0.append(1.0 / d0 if d0 > 0 else 0.0)
        out1.append(1.0 / d1 if d1 > 0 else 0.0)
    return out0, out1


def _max_imb(
    pw0: list[float], pw1: list[float], inv0: list[float], inv1: list[float]
) -> float:
    worst = 1.0
    for c in range(len(pw0)):
        r0 = pw0[c] * inv0[c]
        if r0 > worst:
            worst = r0
        r1 = pw1[c] * inv1[c]
        if r1 > worst:
            worst = r1
    return worst


def fm_refine(
    g: CSRGraph,
    part: np.ndarray,
    *,
    target_frac: float = 0.5,
    imbalance_tol: float = 1.05,
    max_passes: int = 8,
    max_moves_per_pass: int | None = None,
    rng: np.random.Generator | None = None,
    early_stop: int | None = None,
    check_cut: bool = False,
) -> np.ndarray:
    """Refine a bisection in place and return it.

    Parameters
    ----------
    part:
        ``(n,)`` 0/1 labels; modified in place.
    target_frac:
        Target fraction of every constraint's weight for part 0.
    imbalance_tol:
        Allowed multiplicative deviation from the per-part target.
    max_passes:
        FM passes; the loop stops early when a pass yields no
        improvement.
    early_stop:
        Abandon a pass's hill climb after this many consecutive
        non-improving moves; defaults to
        ``max(100, len(boundary) // 2)`` for the boundary the
        refinement starts from (see the module docstring).
    check_cut:
        Debug flag: assert at the end of every pass that the
        incrementally tracked edge cut agrees with a from-scratch
        recomputation.

    Implementation note: internal/external degrees and the edge cut are
    computed once and then maintained *incrementally* around each moved
    (and rolled-back) vertex, so a pass costs O(moved-edge endpoints)
    instead of O(n + m).  Only boundary vertices enter the move queue,
    matching METIS semantics.

    Two priority queues are used.  When every edge weight is exactly 1
    (true for all mesh-dual finest levels, where FM spends most of its
    time) gains are integers in ``[-maxdeg, maxdeg]``, so the classic
    Fiduccia–Mattheyses *gain bucket* array gives O(1) push/pop and
    replaces the lazy binary heap; weighted (coarse) graphs keep the
    heap.  Both queues use lazy deletion — stale entries are skipped on
    pop by comparing against the current gain.
    """
    n = g.num_vertices
    if n == 0:
        return part
    rng = rng or np.random.default_rng(0)
    total = g.total_vwgt()
    targets = np.array([target_frac, 1.0 - target_frac])
    inv0, inv1 = _inv_denoms(total, targets)
    ncon = g.ncon

    pw_arr = np.empty((2, ncon), dtype=np.float64)
    for c in range(ncon):
        pw_arr[:, c] = np.bincount(part, weights=g.vwgt[:, c], minlength=2)
    pw = pw_arr.tolist()
    inv = [inv0, inv1]

    if max_moves_per_pass is None:
        max_moves_per_pass = n

    # Unit edge weights -> integer gains -> FM gain buckets.  The
    # maxdeg guard keeps the per-pass bucket allocation trivial (a
    # pathological star graph would not benefit from buckets anyway).
    maxdeg = int(g.degrees().max()) if len(g.adjncy) else 0
    aw = g.adjwgt
    use_buckets = (
        len(aw) > 0 and maxdeg <= 4096 and aw.min() == 1.0 and aw.max() == 1.0
    )
    off = maxdeg

    # MC_TL weight vectors are binary level indicators: at most one
    # nonzero per vertex (trivially true for ncon == 1 as well).  A
    # move then changes a single constraint, and while every ratio is
    # within tolerance, admissibility reduces to an O(1) check on that
    # constraint — equivalent to the full O(ncon) max (unchanged
    # ratios stay feasible, and the repair clause can never fire from
    # a feasible state).
    hot = _one_hot_columns(g.vwgt)
    one_hot = hot is not None
    if one_hot:
        col, wcol = hot

    # The per-constraint columns feed the generic admissibility loop.
    xadj, adj, awt, vw_cols = g.scalar_views()
    if one_hot:
        col_v = memoryview(col)
        wcol_v = memoryview(wcol)

    # Degrees and cut are maintained incrementally from here on.
    ideg_a, edeg_a = _degrees(g, part)
    ideg = memoryview(ideg_a)
    edeg = memoryview(edeg_a)
    cur_cut = float(edeg_a.sum()) / 2.0
    part_v = memoryview(part)
    # Boundary of the first pass comes from one vectorized scan; later
    # passes rebuild it from the vertices actually touched, keeping
    # per-pass overhead proportional to the work done, not to n.
    boundary = np.flatnonzero(edeg_a > 0)
    if early_stop is None:
        early_stop = max(100, len(boundary) // 2)

    for _ in range(max_passes):
        if len(boundary) == 0:
            break
        locked = bytearray(n)
        touched: list[int] = []
        if use_buckets:
            buckets: list[deque[int]] = [deque() for _ in range(2 * maxdeg + 1)]
            gmax = -1
            for v in boundary[rng.permutation(len(boundary))].tolist():
                gi = int(edeg[v] - ideg[v]) + off
                buckets[gi].append(v)
                if gi > gmax:
                    gmax = gi
        else:
            heap: list[tuple[float, int, int]] = []
            counter = 0
            for v in boundary[rng.permutation(len(boundary))].tolist():
                heap.append((ideg[v] - edeg[v], counter, v))
                counter += 1
            heapq.heapify(heap)

        best_cut = cur_cut
        best_imb = _max_imb(pw[0], pw[1], inv0, inv1)
        moves: list[int] = []
        best_prefix = 0
        budget = max_moves_per_pass
        tol = imbalance_tol
        # One-hot fast balance path: valid while every ratio is within
        # tolerance (an admitted move keeps it that way, so the flag
        # holds for the whole pass).
        fast_bal = one_hot and best_imb <= tol

        while budget > 0:
            # Lazy deletion on both queues: skip stale entries, locked
            # and interior vertices (only boundary vertices may move).
            if use_buckets:
                while gmax >= 0 and not buckets[gmax]:
                    gmax -= 1
                if gmax < 0:
                    break
                v = buckets[gmax].popleft()
                gain = edeg[v] - ideg[v]
                if locked[v] or gain + off != gmax or edeg[v] <= 0:
                    continue
            else:
                if not heap:
                    break
                negg, _, v = heapq.heappop(heap)
                gain = edeg[v] - ideg[v]
                if locked[v] or -negg != gain or edeg[v] <= 0:
                    continue
            src_p = part_v[v]
            dst_p = 1 - src_p
            pws, pwd = pw[src_p], pw[dst_p]
            invs, invd = inv[src_p], inv[dst_p]
            if fast_bal:
                # Only constraint col[v] changes; all others stay
                # feasible, so checking the two new ratios is exact.
                c = col_v[v]
                w = wcol_v[v]
                if (pws[c] - w) * invs[c] > tol or (pwd[c] + w) * invd[c] > tol:
                    continue
                # Apply the move.
                locked[v] = 1
                part_v[v] = dst_p
                pws[c] -= w
                pwd[c] += w
                new_imb = best_imb  # feasible marker; exact value unused
            else:
                # Admissibility on plain floats: new worst imbalance.
                cur_imb = 1.0
                new_imb = 1.0
                for c in range(ncon):
                    w = vw_cols[c][v]
                    rs = pws[c] * invs[c]
                    rd = pwd[c] * invd[c]
                    if rs > cur_imb:
                        cur_imb = rs
                    if rd > cur_imb:
                        cur_imb = rd
                    nrs = (pws[c] - w) * invs[c]
                    nrd = (pwd[c] + w) * invd[c]
                    if nrs > new_imb:
                        new_imb = nrs
                    if nrd > new_imb:
                        new_imb = nrd
                if not (new_imb <= tol or new_imb < cur_imb - 1e-12):
                    continue

                # Apply the move.
                locked[v] = 1
                part_v[v] = dst_p
                for c in range(ncon):
                    w = vw_cols[c][v]
                    pws[c] -= w
                    pwd[c] += w
            cur_cut -= gain
            # v's own internal/external degrees swap when it flips.
            ideg[v], edeg[v] = edeg[v], ideg[v]
            moves.append(v)
            budget -= 1

            # Update neighbour degrees (and thus gains) incrementally.
            # This must happen before any early-stop break so the
            # persistent degree arrays stay consistent for rollback.
            if use_buckets:
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adj[idx]
                    touched.append(u)
                    if part_v[u] == dst_p:
                        ideg[u] += 1.0
                        edeg[u] -= 1.0
                    else:
                        ideg[u] -= 1.0
                        edeg[u] += 1.0
                    if not locked[u] and edeg[u] > 0:
                        gi = int(edeg[u] - ideg[u]) + off
                        buckets[gi].append(u)
                        if gi > gmax:
                            gmax = gi
            else:
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adj[idx]
                    w = awt[idx]
                    touched.append(u)
                    if part_v[u] == dst_p:
                        ideg[u] += w
                        edeg[u] -= w
                    else:
                        ideg[u] -= w
                        edeg[u] += w
                    if not locked[u] and edeg[u] > 0:
                        heapq.heappush(heap, (ideg[u] - edeg[u], counter, u))
                        counter += 1

            feasible_now = new_imb <= tol
            feasible_best = best_imb <= tol
            better = (
                (feasible_now and not feasible_best)
                or (
                    feasible_now == feasible_best
                    and cur_cut < best_cut - 1e-12
                )
                or (
                    not feasible_now
                    and not feasible_best
                    and new_imb < best_imb - 1e-12
                )
            )
            if better:
                best_cut = cur_cut
                best_imb = new_imb
                best_prefix = len(moves)
            elif len(moves) - best_prefix > early_stop:
                break

        # Roll back the tail beyond the best prefix.
        improved = best_prefix > 0
        for v in reversed(moves[best_prefix:]):
            src_p = part_v[v]
            dst_p = 1 - src_p
            part_v[v] = dst_p
            if one_hot:
                c = col_v[v]
                w = wcol_v[v]
                pw[src_p][c] -= w
                pw[dst_p][c] += w
            else:
                for c in range(ncon):
                    w = vw_cols[c][v]
                    pw[src_p][c] -= w
                    pw[dst_p][c] += w
            cur_cut -= edeg[v] - ideg[v]
            ideg[v], edeg[v] = edeg[v], ideg[v]
            if use_buckets:
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adj[idx]
                    if part_v[u] == dst_p:
                        ideg[u] += 1.0
                        edeg[u] -= 1.0
                    else:
                        ideg[u] -= 1.0
                        edeg[u] += 1.0
            else:
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adj[idx]
                    w = awt[idx]
                    if part_v[u] == dst_p:
                        ideg[u] += w
                        edeg[u] -= w
                    else:
                        ideg[u] -= w
                        edeg[u] += w
        if check_cut:
            ref_cut = edge_cut(g, part)
            if abs(cur_cut - ref_cut) > 1e-6 * max(1.0, abs(ref_cut)):
                raise PartitionInternalError(
                    f"incremental cut {cur_cut} != recomputed {ref_cut}"
                )
        if not improved:
            break
        # Next pass's boundary: only moved/touched vertices can have
        # changed degrees, so filter the union instead of rescanning n.
        if moves or touched:
            cand = np.unique(
                np.concatenate(
                    [
                        boundary,
                        np.asarray(moves, dtype=np.int64),
                        np.asarray(touched, dtype=np.int64),
                    ]
                )
            )
            boundary = cand[edeg_a[cand] > 0]
        else:
            boundary = boundary[edeg_a[boundary] > 0]
    return part


def best_initial_bisection(
    g: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
    *,
    ntrials: int = 8,
    imbalance_tol: float = 1.10,
) -> np.ndarray:
    """Run several GGG trials and keep the best bisection.

    Ranking: feasible bisections (every constraint within
    ``imbalance_tol``) are preferred; among equally feasible candidates
    the smaller edge cut wins; infeasible candidates are ranked by
    worst-constraint imbalance first.
    """
    best_part: np.ndarray | None = None
    best_key: tuple[int, float, float] | None = None
    targets = np.array([target_frac, 1.0 - target_frac])
    for _ in range(max(1, ntrials)):
        part = greedy_graph_growing(g, target_frac, rng)
        imb = float(imbalance(g, part, 2, target=targets).max())
        cut = edge_cut(g, part)
        feasible = 0 if imb <= imbalance_tol else 1
        key = (feasible, cut if feasible == 0 else imb, cut)
        if best_key is None or key < best_key:
            best_key, best_part = key, part
    if best_part is None:
        raise PartitionInternalError(
            "best_initial_bisection produced no candidate bisection "
            f"after {max(1, ntrials)} trials on {g.num_vertices} vertices"
        )
    return best_part
