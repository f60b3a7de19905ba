"""Seed (pre-optimization) implementations of the partitioner hot paths.

The vectorized heavy-edge matching in :mod:`repro.graph.coarsen` and the
incremental-gain FM in :mod:`repro.graph.refine` replaced per-vertex
Python loops.  The original loops are kept here verbatim as
**quality-parity oracles**: tests patch these into the multilevel
pipeline and assert the fast paths produce edge cuts and imbalance
statistically indistinguishable from the seed.

These functions are *not* used by the library at runtime.
"""

from __future__ import annotations

import heapq

import numpy as np

from .csr import CSRGraph
from .metrics import edge_cut

__all__ = ["heavy_edge_matching_ref", "fm_refine_ref"]


def heavy_edge_matching_ref(g: CSRGraph, rng: np.random.Generator) -> np.ndarray:
    """Seed heavy-edge matching: greedy per-vertex loop in random order.

    Same contract as :func:`repro.graph.coarsen.heavy_edge_matching`.
    """
    n = g.num_vertices
    match = np.arange(n, dtype=np.int64)
    order = rng.permutation(n)
    xadj, adjncy, adjwgt = g.xadj, g.adjncy, g.adjwgt
    multi = g.ncon > 1
    vwgt = g.vwgt

    for v in order:
        if match[v] != v:
            continue
        best = -1
        best_w = -np.inf
        best_spread = np.inf
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if match[u] != u or u == v:
                continue
            w = adjwgt[idx]
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
    return match


def _degrees_ref(g: CSRGraph, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seed internal/external degree computation (``np.add.at`` based)."""
    n = g.num_vertices
    src = np.repeat(np.arange(n), np.diff(g.xadj))
    same = part[src] == part[g.adjncy]
    ideg = np.zeros(n, dtype=np.float64)
    edeg = np.zeros(n, dtype=np.float64)
    np.add.at(ideg, src[same], g.adjwgt[same])
    np.add.at(edeg, src[~same], g.adjwgt[~same])
    return ideg, edeg


def _inv_denoms_ref(
    total: np.ndarray, targets: np.ndarray
) -> tuple[list[float], list[float]]:
    out0, out1 = [], []
    for c in range(len(total)):
        d0 = total[c] * targets[0]
        d1 = total[c] * targets[1]
        out0.append(1.0 / d0 if d0 > 0 else 0.0)
        out1.append(1.0 / d1 if d1 > 0 else 0.0)
    return out0, out1


def _max_imb_ref(
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


def fm_refine_ref(
    g: CSRGraph,
    part: np.ndarray,
    *,
    target_frac: float = 0.5,
    imbalance_tol: float = 1.05,
    max_passes: int = 8,
    max_moves_per_pass: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Seed FM refinement: per-pass degree + edge-cut recomputation.

    Same contract as :func:`repro.graph.refine.fm_refine`.
    """
    n = g.num_vertices
    if n == 0:
        return part
    rng = rng or np.random.default_rng(0)
    total = g.total_vwgt()
    targets = np.array([target_frac, 1.0 - target_frac])
    inv0, inv1 = _inv_denoms_ref(total, targets)
    ncon = g.ncon
    vw_list: list = g.vwgt.tolist()

    pw_arr = np.zeros((2, ncon), dtype=np.float64)
    np.add.at(pw_arr, part, g.vwgt)
    pw = [list(pw_arr[0]), list(pw_arr[1])]
    inv = [inv0, inv1]

    if max_moves_per_pass is None:
        max_moves_per_pass = n
    early_stop = max(100, n // 64)

    xadj_l: list = g.xadj.tolist()
    adj_l: list = g.adjncy.tolist()
    awt_l: list = g.adjwgt.tolist()

    for _ in range(max_passes):
        ideg, edeg = _degrees_ref(g, part)
        boundary = np.flatnonzero(edeg > 0)
        if len(boundary) == 0:
            break
        stale: list = (edeg - ideg).tolist()
        locked = bytearray(n)
        part_l: list = part.tolist()
        heap: list[tuple[float, int, int]] = []
        counter = 0
        for v in boundary[rng.permutation(len(boundary))]:
            heap.append((-stale[v], counter, int(v)))
            counter += 1
        heapq.heapify(heap)

        cur_cut = edge_cut(g, part)
        best_cut = cur_cut
        best_imb = _max_imb_ref(pw[0], pw[1], inv0, inv1)
        moves: list[int] = []
        best_prefix = 0
        budget = max_moves_per_pass
        tol = imbalance_tol

        while heap and budget > 0:
            negg, _, v = heapq.heappop(heap)
            if locked[v] or -negg != stale[v]:
                continue
            src_p = part_l[v]
            dst_p = 1 - src_p
            vw = vw_list[v]
            pws, pwd = pw[src_p], pw[dst_p]
            invs, invd = inv[src_p], inv[dst_p]
            cur_imb = 1.0
            new_imb = 1.0
            for c in range(ncon):
                w = vw[c]
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

            locked[v] = 1
            part_l[v] = dst_p
            for c in range(ncon):
                w = vw[c]
                pws[c] -= w
                pwd[c] += w
            cur_cut -= stale[v]
            moves.append(v)
            budget -= 1

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

            for idx in range(xadj_l[v], xadj_l[v + 1]):
                u = adj_l[idx]
                if locked[u]:
                    continue
                w = awt_l[idx]
                if part_l[u] == dst_p:
                    stale[u] -= 2.0 * w
                else:
                    stale[u] += 2.0 * w
                heapq.heappush(heap, (-stale[u], counter, u))
                counter += 1

        improved = best_prefix > 0
        for v in moves[best_prefix:]:
            src_p = part_l[v]
            dst_p = 1 - src_p
            part_l[v] = dst_p
            vw = vw_list[v]
            for c in range(ncon):
                w = vw[c]
                pw[src_p][c] -= w
                pw[dst_p][c] += w
        part[:] = part_l
        if not improved:
            break
    return part
