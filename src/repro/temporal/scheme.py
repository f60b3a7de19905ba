"""The explicit temporal-adaptive integration scheme.

One *iteration* advances every cell to the same physical time; it is
divided into ``2**τ_max`` *subiterations*.  A cell of level τ is
*active* (recomputed) at subiteration ``s`` iff ``s % 2**τ == 0``:
τ=0 cells are active in every subiteration, τ=1 cells every other one,
and the coarsest cells only at ``s = 0`` (paper Fig. 4).

Each subiteration contains one *phase* per active level, traversed in
**descending** level order (coarse first — their long step must be
taken before finer cells interpolate against it, paper Algorithm 1).
"""

from __future__ import annotations

__all__ = ["num_subiterations", "active_levels", "subiteration_tau_max"]


def num_subiterations(tau_max: int) -> int:
    """Subiterations per iteration: ``2**τ_max``."""
    if tau_max < 0:
        raise ValueError("tau_max must be >= 0")
    return 1 << tau_max


def subiteration_tau_max(s: int, tau_max: int) -> int:
    """Highest level active at subiteration ``s``.

    ``s = 0`` activates every level; otherwise the highest active level
    is the number of trailing zero bits of ``s``.
    """
    if s == 0:
        return tau_max
    return min((s & -s).bit_length() - 1, tau_max)


def active_levels(s: int, tau_max: int) -> list[int]:
    """Active levels of subiteration ``s`` in descending (phase) order."""
    top = subiteration_tau_max(s, tau_max)
    return list(range(top, -1, -1))

