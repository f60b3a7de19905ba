"""Initial bisection heuristics for the coarsest graph.

After coarsening, the graph is small (hundreds of vertices).  We bisect
it with *greedy graph growing* (GGG): grow a region from a random seed,
always absorbing the boundary vertex with the best cut gain, until the
region reaches its target weight on every constraint.  Several random
trials are run and the best feasible bisection kept.

For multi-constraint graphs the stopping rule and the tie-breaks
consider all constraints: a vertex is preferred if it reduces the cut
and moves every under-filled constraint toward its target.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..resilience.errors import PartitionInternalError
from .csr import CSRGraph
from .metrics import edge_cut, imbalance

__all__ = ["greedy_graph_growing", "best_initial_bisection"]


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
    ncon = g.ncon
    want = (g.total_vwgt() * target_frac).tolist()
    part = np.ones(n, dtype=np.int32)
    acc = [0.0] * ncon

    # Narrowed (float32) weights accumulate in float64 through the
    # views and give bit-identical gains.
    xadj, adj, awt, vw_cols = g.scalar_views()
    part_v = memoryview(part)

    seed = int(seed_vertex) if seed_vertex is not None else int(rng.integers(n))
    # gain[v] = (weight of edges from v into part0) - (edges to part1)
    gain = [-np.inf] * n
    heap: list[tuple[float, int, int]] = []
    counter = 0

    def grow(v: int) -> None:
        nonlocal counter
        part_v[v] = 0
        for c in range(ncon):
            acc[c] += vw_cols[c][v]
        for idx in range(xadj[v], xadj[v + 1]):
            u = adj[idx]
            if part_v[u] == 0:
                continue
            # Recompute u's gain: edges to part0 minus edges to part1.
            to0 = 0.0
            to1 = 0.0
            for j in range(xadj[u], xadj[u + 1]):
                if part_v[adj[j]] == 0:
                    to0 += awt[j]
                else:
                    to1 += awt[j]
            gain[u] = gval = to0 - to1
            heapq.heappush(heap, (-gval, counter, u))
            counter += 1

    grow(seed)
    # Under-filled means some constraint below target.
    while any(a < w for a, w in zip(acc, want)):
        v = -1
        while heap:
            negg, _, cand = heapq.heappop(heap)
            if part_v[cand] == 1 and -negg == gain[cand]:
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
