"""Multilevel bisection: coarsen → initial bisection → refine.

This is the V-cycle at the heart of the partitioner.  The fine graph is
coarsened with heavy-edge matching until it is small, bisected directly
with greedy graph growing, and the bisection is projected back up with
FM refinement (and explicit rebalancing if needed) at every level.
"""

from __future__ import annotations

import numpy as np

from .coarsen import CoarseningLevel, HierarchySpill, coarsen_once
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
    spill: HierarchySpill | None = None,
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
    spill:
        Optional :class:`~repro.graph.coarsen.HierarchySpill` policy:
        past its byte budget, idle hierarchy levels are written to mmap
        spill files and reattached read-only for their uncoarsening
        step.  Spilling never changes the labels — the reloaded arrays
        are byte-for-byte the spilled ones.
    """
    if coarse_to is None:
        coarse_to = max(64, 20 * g.ncon)

    # --- Coarsening phase -------------------------------------------------
    levels: list[CoarseningLevel] = []
    cur = g
    resident = 0
    try:
        while cur.num_vertices > coarse_to:
            lvl = coarsen_once(cur, rng)
            # Stop if matching stalls (e.g. star graphs): < 10% shrink.
            if lvl.graph.num_vertices > 0.95 * cur.num_vertices:
                break
            levels.append(lvl)
            cur = lvl.graph
            # The previous level just went idle: its graph is needed
            # again only at its uncoarsening step.  The active input
            # (levels[-1]) always stays resident.
            if spill is not None and len(levels) >= 2:
                resident = spill.offload(levels[-2], resident)

        # --- Initial partitioning -----------------------------------------
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

        # --- Uncoarsening phase -------------------------------------------
        # The fine side of level i is level i-1's coarse graph (``None``
        # stands for the original ``g``), reloaded from its spill file
        # when the level went to disk and unlinked right after its
        # refinement step.
        fines: list[CoarseningLevel | None] = [None] + levels[:-1]
        for lvl, fine_lvl in zip(reversed(levels), reversed(fines)):
            if fine_lvl is None:
                fine, reader = g, None
            elif spill is not None:
                fine, reader = spill.reload(fine_lvl)
            else:
                fine, reader = fine_lvl.graph, None
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
            if fine_lvl is not None:
                HierarchySpill.release(fine_lvl, reader)
        return part
    finally:
        # Exception safety: never leak spill files for levels whose
        # uncoarsening step did not run.
        for lvl in levels:
            if lvl.spill_handle is not None:
                lvl.spill_handle.unlink()
                lvl.spill_handle = None
