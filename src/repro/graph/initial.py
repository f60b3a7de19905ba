"""Initial bisection heuristics for the coarsest graph.

After coarsening, the graph is small (hundreds of vertices).  We bisect
it with *greedy graph growing* (GGG): grow a region from a random seed,
always absorbing the frontier vertex with the highest cut gain (FIFO
among equal gains), until the region reaches its target weight on
every constraint.  Several random trials are run and the best feasible
bisection kept.

Balance enters only through that stopping rule: the growth order looks
at the cut alone, whatever the number of constraints.  A balance-first
multi-constraint variant belongs with ROADMAP item 1 (MC_TL's balance
contract).

Gains are kept, not recomputed: every vertex starts at minus its
weighted degree (:meth:`CSRGraph.weighted_degrees`, all its edges into
the other part) and gains ``2w`` when a neighbour across an edge of
weight ``w`` is absorbed.  Where every partial sum of the weights is
exact in float64 (integer weights, for one) the gains — and the labels
— equal those of rescanning the neighbour's adjacency bit for bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from .csr import CSRGraph

__all__ = ["best_initial_bisection"]


def _growth_state(g: CSRGraph, target_frac: float) -> tuple:
    """What every GGG trial on ``g`` shares: the per-constraint target
    weights, the typed CSR views, each vertex's nonzero weights and
    each vertex's starting gain."""
    xadj, adj, awt, _ = g.scalar_views()
    # (constraint, weight) pairs: adding a zero leaves a running sum
    # unchanged, so it is skipped.
    rows = [
        [(c, w) for c, w in enumerate(row) if w] for row in g.vwgt.tolist()
    ]
    want = (g.total_vwgt() * target_frac).tolist()
    return want, xadj, adj, awt, rows, (-g.weighted_degrees()).tolist()


def _grow(
    state: tuple, rng: np.random.Generator
) -> tuple[np.ndarray, list[float], float]:
    """One GGG trial: ``(labels, gains, cut)``.

    ``gains[u]`` is, for every vertex ``u`` still in part 1, the weight
    of its edges into part 0 minus its edges into part 1; ``cut`` sums
    the change each absorption made to the edge cut.
    """
    want, xadj, adj, awt, rows, start = state
    n = len(start)
    ncon = len(want)
    # 1 while in part 1; one byte per vertex indexes faster than a
    # view of the int32 labels.
    side = bytearray(b"\x01") * n
    acc = [0.0] * ncon
    # Constraints still below target.
    under = sum(1 for w in want if 0.0 < w)
    gain = start.copy()
    heap: list[tuple[float, int, int]] = []
    counter = 0
    cut = 0.0

    v = int(rng.integers(n))
    while True:
        side[v] = 0
        cut -= gain[v]
        for c, w in rows[v]:
            a = acc[c]
            b = acc[c] = a + w
            under += (b < want[c]) - (a < want[c])
        for idx in range(xadj[v], xadj[v + 1]):
            u = adj[idx]
            if not side[u]:
                continue
            gain[u] = gval = gain[u] + 2.0 * awt[idx]
            heapq.heappush(heap, (-gval, counter, u))
            counter += 1
        if not under:
            break
        v = -1
        while heap:
            negg, _, cand = heapq.heappop(heap)
            if side[cand] and -negg == gain[cand]:
                v = cand
                break
        if v < 0:
            # Frontier exhausted (disconnected graph): jump to a random
            # vertex still in part 1.
            remaining = np.frombuffer(side, dtype=np.uint8).nonzero()[0]
            if len(remaining) == 0:
                break
            v = int(remaining[rng.integers(len(remaining))])
    return np.frombuffer(side, dtype=np.uint8).astype(np.int32), gain, cut


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

    The trials share one growth state.  Each trial's cut comes from its
    growth; the part weights of all trials come from one ``bincount``
    per constraint over ``trial * 2 + label``, which adds each bin in
    vertex order exactly as :func:`~repro.graph.metrics.imbalance` does.
    """
    trials = max(1, ntrials)
    state = _growth_state(g, target_frac)
    parts, cuts = [], []
    for _ in range(trials):
        part, _, cut = _grow(state, rng)
        parts.append(part)
        cuts.append(cut)

    bins = (np.stack(parts) + 2 * np.arange(trials)[:, None]).ravel()
    pw = np.empty((trials, 2, g.ncon), dtype=np.float64)
    for c in range(g.ncon):
        pw[:, :, c] = np.bincount(
            bins, weights=np.tile(g.vwgt[:, c], trials), minlength=2 * trials
        ).reshape(trials, 2)
    total = g.total_vwgt()
    targets = np.array([target_frac, 1.0 - target_frac])
    # Worst constraint per trial; an empty constraint reads 1.0.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (pw / (targets[:, None] * total)).max(axis=1)
    ratios[:, total <= 0] = 1.0
    imbs = ratios.max(axis=1).tolist()

    best = 0
    best_key: tuple[int, float, float] | None = None
    for t, (imb, cut) in enumerate(zip(imbs, cuts)):
        feasible = 0 if imb <= imbalance_tol else 1
        key = (feasible, cut if feasible == 0 else imb, cut)
        if best_key is None or key < best_key:
            best_key, best = key, t
    return parts[best]
