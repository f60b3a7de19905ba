"""Multilevel bisection: coarsen → initial bisection → refine.

This is the V-cycle at the heart of the partitioner.  The fine graph is
coarsened with heavy-edge matching until it is small, bisected directly
with greedy graph growing, and the bisection is projected back up with
FM refinement (and explicit rebalancing if needed) at every level.
"""

from __future__ import annotations

import numpy as np

from .coarsen import CoarseningLevel, coarsen_once
from .csr import CSRGraph
from .initial import best_initial_bisection
from .refine import fm_refine, rebalance

__all__ = ["multilevel_bisect"]


def multilevel_bisect(
    g: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
    *,
    imbalance_tol: float = 1.05,
    coarse_to: int | None = None,
    max_passes: int = 8,
    init_trials: int = 8,
) -> np.ndarray:
    """Bisect ``g`` so part 0 receives ``target_frac`` of every
    constraint's weight.

    Returns a ``(n,)`` int32 array of 0/1 labels.

    Parameters
    ----------
    imbalance_tol:
        Multiplicative balance tolerance per constraint (METIS-style
        ``ubvec``); 1.05 allows 5% overweight.
    coarse_to:
        Stop coarsening when the graph has at most this many vertices.
        Defaults to ``max(64, 20 * ncon)``.
    """
    if coarse_to is None:
        coarse_to = max(64, 20 * g.ncon)

    # --- Coarsening phase -------------------------------------------------
    levels: list[CoarseningLevel] = []
    cur = g
    while cur.num_vertices > coarse_to:
        lvl = coarsen_once(cur, rng)
        # Stop if matching stalls (e.g. star graphs): < 10% shrink.
        if lvl.graph.num_vertices > 0.95 * cur.num_vertices:
            break
        levels.append(lvl)
        cur = lvl.graph

    # --- Initial partitioning ---------------------------------------------
    part = best_initial_bisection(
        cur,
        target_frac,
        rng,
        ntrials=init_trials,
        imbalance_tol=imbalance_tol,
    ).astype(np.int32, copy=False)
    part = rebalance(
        cur, part, target_frac=target_frac, imbalance_tol=imbalance_tol
    )
    part = fm_refine(
        cur,
        part,
        target_frac=target_frac,
        imbalance_tol=imbalance_tol,
        max_passes=max_passes,
        rng=rng,
    )

    # --- Uncoarsening phase -----------------------------------------------
    # The fine side of level i is level i-1's coarse graph (the original
    # ``g`` for the first level).
    fines = [g] + [lvl.graph for lvl in levels[:-1]]
    for lvl, fine in zip(reversed(levels), reversed(fines)):
        part = part[lvl.cmap].astype(np.int32, copy=False)
        part = rebalance(
            fine,
            part,
            target_frac=target_frac,
            imbalance_tol=imbalance_tol,
        )
        part = fm_refine(
            fine,
            part,
            target_frac=target_frac,
            imbalance_tol=imbalance_tol,
            max_passes=max_passes,
            rng=rng,
        )
    return part
