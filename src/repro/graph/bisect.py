"""Multilevel bisection: coarsen → initial bisection → refine.

This is the V-cycle at the heart of the partitioner.  The fine graph is
coarsened until it is small, bisected directly with greedy graph
growing, and the bisection is projected back up with FM refinement
(and explicit rebalancing if needed) at every level.

Coarsening (:func:`coarsen`) builds the hierarchy one of two ways.  A
graph matched afresh, as the root of the bisection tree always is, gets
heavy-edge matching (HEM) at every level.  A tree node may instead
*inherit* its parent's hierarchy: at each level the node's vertices
that lay in one parent coarse vertex are contracted together (a pair
split by the parent's cut stays as two single vertices), so its coarse
vertices are its parent's, restricted to its side of the cut.  Fresh
HEM with the node's own generator takes over only where an inherited
level stalls (shrinks the graph by under 5 %) or the inherited levels
run out above the coarsening target.  Which nodes inherit is the
tree's choice (:mod:`repro.graph.partition`): the root's children and
grandchildren on large graphs, where the 8-part partitions of the
largest meshes then match each edge once instead of three times.
"""

from __future__ import annotations

import numpy as np

from .coarsen import (
    CoarseningLevel,
    coarsen_once,
    contract,
    inherited_matching,
)
from .csr import CSRGraph
from .initial import best_initial_bisection
from .refine import fm_refine, rebalance

__all__ = ["coarsen", "inherit_levels", "multilevel_bisect"]


def _stalled(lvl: CoarseningLevel, n: int) -> bool:
    """Whether a level shrinks the graph by less than 5 % (e.g. a star
    graph's matching): too little to be worth a level."""
    return lvl.graph.num_vertices > 0.95 * n


def coarsen(
    g: CSRGraph,
    rng: np.random.Generator,
    *,
    inherit: list[np.ndarray] | None = None,
) -> list[CoarseningLevel]:
    """The coarsening hierarchy of ``g``, finest level first.

    Levels are added until the graph has at most ``max(64, 20 * ncon)``
    vertices or a level stalls.  ``inherit`` is
    a parent hierarchy restricted to ``g`` by :func:`inherit_levels`:
    its first array holds, for every vertex of ``g``, the parent's
    level-1 coarse vertex, and array ``i`` maps those level-``i``
    coarse vertices onto the parent's level ``i + 1`` (both renumbered
    to the ones ``g`` touches).  Inherited levels draw nothing from
    ``rng``; the first one that stalls, or the end of the inherited
    levels above that size, hands over to heavy-edge matching for
    the rest of the hierarchy.
    """
    coarse_to = max(64, 20 * g.ncon)
    levels: list[CoarseningLevel] = []
    cur = g
    up = None  # parent coarse vertex of every vertex of ``cur``
    while cur.num_vertices > coarse_to:
        n = cur.num_vertices
        if inherit is not None and len(levels) < len(inherit):
            key = inherit[0] if up is None else inherit[len(levels)][up]
            lvl = contract(cur, inherited_matching(key))
            if not _stalled(lvl, n):
                up = np.empty(lvl.graph.num_vertices, dtype=np.int64)
                up[lvl.cmap] = key
                levels.append(lvl)
                cur = lvl.graph
                continue
        inherit = None
        lvl = coarsen_once(cur, rng)
        if _stalled(lvl, n):
            break
        levels.append(lvl)
        cur = lvl.graph
    return levels


def inherit_levels(
    levels: list[CoarseningLevel], side: np.ndarray
) -> list[np.ndarray] | None:
    """Restrict a node's hierarchy to one side of its cut.

    ``side`` holds the node-local ids of the child's vertices, in the
    child's order.  Returns the ``inherit`` argument of :func:`coarsen`
    for the child (``None`` when the node did not coarsen): at every
    level only the coarse vertices the side touches are kept,
    renumbered in order, so what travels with a child is about twice
    its vertex count in int32, whatever the size of its parent.
    """
    if not levels:
        return None
    out = []
    touched = side
    for lvl in levels:
        key = lvl.cmap[touched]
        present = np.zeros(lvl.graph.num_vertices, dtype=bool)
        present[key] = True
        rank = np.cumsum(present, dtype=np.int32) - 1
        out.append(rank[key])
        touched = np.flatnonzero(present)
    return out


def multilevel_bisect(
    g: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
    *,
    imbalance_tol: float = 1.05,
    levels: list[CoarseningLevel] | None = None,
) -> np.ndarray:
    """Bisect ``g`` so part 0 receives ``target_frac`` of every
    constraint's weight.

    Returns a ``(n,)`` int32 array of 0/1 labels.

    Parameters
    ----------
    imbalance_tol:
        Multiplicative balance tolerance per constraint (METIS-style
        ``ubvec``); 1.05 allows 5% overweight.
    levels:
        A hierarchy of ``g`` already built by :func:`coarsen` (a
        bisection-tree node passes the one it inherited); by default
        ``g`` is coarsened here with fresh heavy-edge matching.
    """
    # --- Coarsening phase -------------------------------------------------
    if levels is None:
        levels = coarsen(g, rng)
    cur = levels[-1].graph if levels else g

    # --- Initial partitioning ---------------------------------------------
    part = best_initial_bisection(
        cur, target_frac, rng, imbalance_tol=imbalance_tol
    ).astype(np.int32, copy=False)
    part = rebalance(
        cur, part, target_frac=target_frac, imbalance_tol=imbalance_tol
    )
    part = fm_refine(
        cur,
        part,
        target_frac=target_frac,
        imbalance_tol=imbalance_tol,
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
            rng=rng,
        )
    return part
