"""Fiduccia–Mattheyses (FM) boundary refinement for bisections.

After each uncoarsening step the projected bisection is refined with FM
passes: boundary vertices are moved one at a time in gain order, moves
are tentatively applied even when the gain is negative (hill climbing),
and at the end of the pass the best prefix of the move sequence is
kept.

Multi-constraint admissibility follows Karypis & Kumar: a move is
admissible if, for every constraint, the destination part stays within
``imbalance_tol`` of its target — or if the move strictly improves the
worst per-constraint imbalance (so infeasible states can be repaired).

Hill-climb allowance.  A pass keeps making non-improving moves until
``early_stop`` consecutive ones have failed to beat the best prefix,
then rolls all of them back.  The default allowance follows the
boundary the refinement starts from,
``max(100, len(boundary) // 2)``: only boundary vertices can move, so
the boundary — not ``n`` — is the scale of a useful excursion.  (METIS
clamps 1 % of ``n`` to [15, 100]; the seed rule here, 1/64 of ``n``
floored at 100, survives only in :mod:`repro.graph.reference`.)  On a
357k-vertex mesh dual whose bisection boundary is ~2.6k vertices the
seed rule made 5,583 consecutive non-improving moves before giving up
and rolled back 74 % of all moves; the boundary rule makes 38 % of the
moves.  The price is cut, and it shrinks with the part count: about
+5-8 % on a single 90k-vertex bisection, +2-3 % on 8-part partitions
at 90k and 357k vertices, nothing at 20k vertices (both rules clamp to
100 there); a flat 100 or ``len(boundary) // 4`` costs 12-13 %.
Frontier table in EXPERIMENTS.md.

Implementation note: the per-move admissibility check runs millions of
times, so the inner loop works on plain Python floats (``ncon ≤`` a
handful) rather than NumPy arrays — an order-of-magnitude win measured
by profiling.  The graph-sized state (CSR arrays, labels, gains,
weight columns) is indexed through ``memoryview``s of the NumPy arrays
themselves (:meth:`CSRGraph.scalar_views`): no per-level copy into
boxed lists, and the loop's writes land in the arrays the vectorised
steps read.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..resilience.errors import PartitionInternalError
from .csr import CSRGraph
from .metrics import edge_cut, part_weights

__all__ = ["fm_refine", "rebalance"]

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


def _gains(g: CSRGraph, part: np.ndarray) -> np.ndarray:
    """External minus internal degree of every vertex w.r.t. a
    bisection: the cut reduction of moving it (writable float64)."""
    ideg, edeg = _degrees(g, part)
    return edeg - ideg


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

    Implementation note: one gain per vertex (external minus internal
    degree) and the edge cut are computed once and then maintained
    *incrementally* around each moved (and rolled-back) vertex — a
    neighbour's gain moves by ``2w``, the mover's changes sign — so a
    pass costs O(moved-edge endpoints) instead of O(n + m).  A vertex
    is on the boundary while its gain exceeds minus its weighted degree
    (:meth:`CSRGraph.weighted_degrees`, which never changes), i.e.
    while its external degree is positive.  Only boundary vertices
    enter the move queue, matching METIS semantics.  Where every
    partial sum of the weights is exact in float64 (integer weights,
    for one) the labels equal those of separate internal/external
    degree arrays bit for bit.

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

    pw = part_weights(g, part, 2).tolist()
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

    # Gains and cut are maintained incrementally from here on; the
    # external degree is (wdeg + gain) / 2.
    gain_a = _gains(g, part)
    wdeg_a = g.weighted_degrees()
    gain = memoryview(gain_a)
    wdeg = memoryview(wdeg_a)
    cur_cut = float((wdeg_a + gain_a).sum()) / 4.0
    part_v = memoryview(part)
    # Boundary of the first pass comes from one vectorized scan; later
    # passes rebuild it from the vertices actually touched, keeping
    # per-pass overhead proportional to the work done, not to n.
    boundary = np.flatnonzero(gain_a > -wdeg_a)
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
                gi = int(gain[v]) + off
                buckets[gi].append(v)
                if gi > gmax:
                    gmax = gi
        else:
            heap: list[tuple[float, int, int]] = []
            counter = 0
            for v in boundary[rng.permutation(len(boundary))].tolist():
                heap.append((-gain[v], counter, v))
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
                gv = gain[v]
                if locked[v] or gv + off != gmax or gv <= -wdeg[v]:
                    continue
            else:
                if not heap:
                    break
                negg, _, v = heapq.heappop(heap)
                gv = gain[v]
                if locked[v] or -negg != gv or gv <= -wdeg[v]:
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
            cur_cut -= gv
            # v's internal and external degrees swap when it flips.
            gain[v] = -gv
            moves.append(v)
            budget -= 1

            # Update neighbour gains incrementally.  This must happen
            # before any early-stop break so the persistent gain array
            # stays consistent for rollback.
            if use_buckets:
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adj[idx]
                    touched.append(u)
                    if part_v[u] == dst_p:
                        gu = gain[u] - 2.0
                    else:
                        gu = gain[u] + 2.0
                    gain[u] = gu
                    if not locked[u] and gu > -wdeg[u]:
                        gi = int(gu) + off
                        buckets[gi].append(u)
                        if gi > gmax:
                            gmax = gi
            else:
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adj[idx]
                    touched.append(u)
                    if part_v[u] == dst_p:
                        gu = gain[u] - 2.0 * awt[idx]
                    else:
                        gu = gain[u] + 2.0 * awt[idx]
                    gain[u] = gu
                    if not locked[u] and gu > -wdeg[u]:
                        heapq.heappush(heap, (-gu, counter, u))
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
            gv = gain[v]
            cur_cut -= gv
            gain[v] = -gv
            if use_buckets:
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adj[idx]
                    if part_v[u] == dst_p:
                        gain[u] -= 2.0
                    else:
                        gain[u] += 2.0
            else:
                for idx in range(xadj[v], xadj[v + 1]):
                    u = adj[idx]
                    if part_v[u] == dst_p:
                        gain[u] -= 2.0 * awt[idx]
                    else:
                        gain[u] += 2.0 * awt[idx]
        if check_cut:
            ref_cut = edge_cut(g, part)
            if abs(cur_cut - ref_cut) > 1e-6 * max(1.0, abs(ref_cut)):
                raise PartitionInternalError(
                    f"incremental cut {cur_cut} != recomputed {ref_cut}"
                )
        if not improved:
            break
        # Next pass's boundary: only moved/touched vertices can have
        # changed gains, so filter the union instead of rescanning n.
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
            boundary = cand[gain_a[cand] > -wdeg_a[cand]]
        else:
            boundary = boundary[gain_a[boundary] > -wdeg_a[boundary]]
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

    Like FM it keeps one gain per vertex and moves a neighbour's gain
    by ``2w``; part weights are Python floats and each constraint's
    purity vector is built once per call.  Where every partial sum of
    the weights is exact in float64 the labels equal those of separate
    internal/external degree arrays bit for bit.
    """
    n = g.num_vertices
    ncon = g.ncon
    total = g.total_vwgt().tolist()
    targets = (float(target_frac), float(1.0 - target_frac))
    denom = [[tc * t for tc in total] for t in targets]
    pw = part_weights(g, part, 2).tolist()
    if max_moves is None:
        max_moves = n

    moves = 0
    # Gains and the candidate state are O(n + m) to build and only a
    # violating pair needs them: the common feasible projection pays
    # for neither.
    gain = None
    while moves < max_moves:
        # The worst (part, constraint) ratio; the first wins ties.
        worst, src_p, c = 1.0, -1, -1
        for cc in range(ncon):
            if total[cc] <= 0:
                continue
            for p in (0, 1):
                d = denom[p][cc]
                w = pw[p][cc]
                r = w / d if d > 0 else (_INF if w > 0 else 1.0)
                if r > worst:
                    worst, src_p, c = r, p, cc
        if worst <= imbalance_tol or src_p < 0:
            break
        dst_p = 1 - src_p
        if gain is None:
            gain = _gains(g, part)
            gain_v = memoryview(gain)
            # Each vertex's part, or 2 once it has moved (locked): one
            # comparison selects the movable vertices of a part.
            side = part.astype(np.int8)
            side_v = memoryview(side)
            xadj, adj, awt, vw_cols = g.scalar_views()
            part_v = memoryview(part)
            vw = g.vwgt
            rowsum = np.maximum(vw.sum(axis=1), 1e-300)
            # Per constraint: who carries weight on it, and how
            # concentrated each vertex's weight is there.
            purity: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if c not in purity:
            purity[c] = (vw[:, c] > 0, vw[:, c] / rowsum)
        carries, pur = purity[c]
        cand = ((side == src_p) & carries).nonzero()[0]
        if len(cand) == 0:
            break
        gains = gain[cand]
        # Among the best-gain candidates, prefer the one whose weight is
        # most concentrated on the violating constraint (so the move
        # does not overfill the destination on other constraints).
        top = cand[gains >= np.maximum.reduce(gains) - 1e-12]
        v = int(top[0] if len(top) == 1 else top[pur[top].argmax()])

        part_v[v] = dst_p
        side_v[v] = 2
        pws, pwd = pw[src_p], pw[dst_p]
        for cc in range(ncon):
            w = vw_cols[cc][v]
            pws[cc] -= w
            pwd[cc] += w
        moves += 1
        # Incremental gain updates around v; v's own changes sign.
        for idx in range(xadj[v], xadj[v + 1]):
            u = adj[idx]
            if part_v[u] == dst_p:
                gain_v[u] -= 2.0 * awt[idx]
            else:
                gain_v[u] += 2.0 * awt[idx]
        gain_v[v] = -gain_v[v]
    return part
