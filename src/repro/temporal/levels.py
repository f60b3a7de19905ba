"""Temporal level assignment and operating costs.

In the paper's adaptive time-stepping scheme every cell carries a
*temporal level* τ reflecting its maximum allowed time step: the time
step doubles with each level, so a cell of level τ is integrated every
``2**τ``-th subiteration.  For an explicit solver the stable time step
scales with the cell size (CFL), so on a quadtree mesh the level is
simply the cell's size octave above the finest cell.

The *operating cost* of a cell is the number of times it is computed
during one full iteration: ``2**(τ_max − τ)`` (paper §II-A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Not at run time: ``repro.mesh`` imports this module (for
    # ``mesh.quality``), so a run-time import here is a cycle whenever
    # ``repro.temporal`` is imported before ``repro.mesh``.
    from ..mesh.structures import Mesh

__all__ = [
    "levels_from_depth",
    "levels_from_timestep",
    "relevel_with_hysteresis",
    "assign_levels_by_fraction",
    "operating_costs",
    "face_levels",
]

#: Hysteresis of :func:`relevel_with_hysteresis`, in octaves.
HYSTERESIS_MARGIN = 0.15
#: ``2**HYSTERESIS_MARGIN``, correctly rounded (a literal, so no host's
#: ``pow`` decides its last bit).
_MARGIN_RATIO = 1.109569472067845


def _floor_log2(x: np.ndarray) -> np.ndarray:
    """``floor(log2(x))`` for positive ``x``, read exactly off the
    binary exponent: no ``log2`` kernel, so no SIMD-dependent rounding
    can move a value across an octave boundary."""
    return np.frexp(x)[1].astype(np.int64) - 1


def levels_from_depth(mesh: Mesh, *, num_levels: int | None = None) -> np.ndarray:
    """Temporal levels from quadtree depth.

    The finest cells (largest depth) get τ=0; each halving of
    resolution adds one level.  If ``num_levels`` is given, levels are
    clipped to ``num_levels - 1`` — clipping makes coarse cells compute
    *more* often than strictly necessary, which is always CFL-safe.
    """
    d = mesh.cell_depth.astype(np.int64)
    tau = d.max() - d
    if num_levels is not None:
        if num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        tau = np.minimum(tau, num_levels - 1)
    return tau.astype(np.int32)


def levels_from_timestep(
    dt_cell: np.ndarray, *, num_levels: int | None = None
) -> np.ndarray:
    """Temporal levels from per-cell stable time steps.

    ``τ(c) = floor(log2(dt_c / dt_min))``: a cell may take time step
    ``2**τ · dt_min`` without violating its own stability bound.  This
    is how the solver derives levels from the CFL condition (see
    :mod:`repro.solver.timestep`).
    """
    dt_cell = np.asarray(dt_cell, dtype=np.float64)
    if np.any(dt_cell <= 0):
        raise ValueError("time steps must be positive")
    dt_min = dt_cell.min()
    tau = _floor_log2(dt_cell / dt_min + 1e-12)
    tau = np.maximum(tau, 0)
    if num_levels is not None:
        tau = np.minimum(tau, num_levels - 1)
    return tau.astype(np.int32)


def relevel_with_hysteresis(
    dt_cell: np.ndarray,
    tau_old: np.ndarray,
    dt_ref: float,
    *,
    num_levels: int | None = None,
) -> np.ndarray:
    """Update temporal levels with an anchored reference and
    hysteresis.

    Naively recomputing ``τ = floor(log2(dt/dt_min))`` every iteration
    reclassifies large cell populations whenever the global minimum
    drifts, because every octave boundary moves with it.  Production
    codes instead anchor the octaves to a fixed reference step and add
    hysteresis; this is what makes the paper's §III-A observation —
    "the temporal levels of the cells experience minimal evolution
    across iterations" — hold in practice.

    Rules (per cell, with ``x = log2(dt / dt_ref)``):

    * **down** (τ decreases): applied *immediately* whenever
      ``x < τ_old`` — the cell's stability bound no longer covers its
      band, so there is no slack on the unsafe side;
    * **up** (τ increases): applied only when the cell has left its
      band by the margin ``m`` (:data:`HYSTERESIS_MARGIN`):
      ``x ≥ τ_old + 1 + m``, and then ``τ = floor(x − m)``.

    Both rules are evaluated on ``r = dt / dt_ref`` without a
    logarithm: ``floor(x)`` is the binary exponent of ``r``, and
    ``x ≥ τ_old + 1 + m`` is ``r ≥ 2**(τ_old + 1) · 2**m``.

    Returns the new ``(n,)`` int32 level array.
    """
    dt_cell = np.asarray(dt_cell, dtype=np.float64)
    tau_old = np.asarray(tau_old, dtype=np.int64)
    if dt_ref <= 0:
        raise ValueError("dt_ref must be positive")
    if np.any(dt_cell <= 0):
        raise ValueError("time steps must be positive")
    r = dt_cell / dt_ref
    octave = _floor_log2(r)
    tau = tau_old.copy()
    down = octave < tau_old
    tau[down] = octave[down]
    up = r >= np.ldexp(_MARGIN_RATIO, tau_old + 1)
    tau[up] = _floor_log2(r[up] / _MARGIN_RATIO)
    tau = np.maximum(tau, 0)
    if num_levels is not None:
        tau = np.minimum(tau, num_levels - 1)
    return tau.astype(np.int32)


def assign_levels_by_fraction(
    mesh: Mesh, fractions: np.ndarray, *, seed: int = 0
) -> np.ndarray:
    """Assign levels matching exact per-level cell-count fractions.

    Cells are sorted by volume (ties broken deterministically) and the
    smallest ``fractions[0]`` share becomes τ=0, the next
    ``fractions[1]`` share τ=1, etc.  Used to replicate Table I's
    distributions exactly in scheduling-only studies where the physics
    does not run.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if np.any(fractions < 0) or not np.isclose(fractions.sum(), 1.0):
        raise ValueError("fractions must be non-negative and sum to 1")
    n = mesh.num_cells
    rng = np.random.default_rng(seed)
    jitter = rng.random(n) * 1e-12  # deterministic tie-breaking
    order = np.argsort(mesh.cell_volumes + jitter, kind="stable")
    bounds = np.floor(np.cumsum(fractions) * n + 0.5).astype(np.int64)
    tau = np.zeros(n, dtype=np.int32)
    start = 0
    for lvl, end in enumerate(bounds):
        tau[order[start:end]] = lvl
        start = end
    tau[order[start:]] = len(fractions) - 1
    return tau


def operating_costs(tau: np.ndarray) -> np.ndarray:
    """Operating cost ``2**(τ_max − τ)`` per cell (activations per
    iteration), ``τ_max`` the highest level present.  ``ldexp`` builds
    each power of two exactly, with no CPU-dispatched ``exp2`` kernel."""
    tau = np.asarray(tau, dtype=np.int64)
    tau_max = int(tau.max()) if len(tau) else 0
    if np.any(tau < 0):
        raise ValueError("levels out of range")
    return np.ldexp(1.0, tau_max - tau)


def face_levels(mesh: Mesh, tau: np.ndarray) -> np.ndarray:
    """Temporal level of every face.

    A face is computed whenever its most frequently updated adjacent
    cell is, i.e. ``τ_face = min(τ_a, τ_b)``; boundary faces inherit
    their single cell's level.  Returns ``(num_faces,)`` int32, read in
    windows of :data:`~repro.mesh.dual.DEFAULT_CHUNK_FACES` faces, so
    no face-length temporary is built.
    """
    from ..mesh import dual  # not at import time: see the note above

    fc = mesh.face_cells
    out = np.empty(len(fc), dtype=np.int32)
    chunk = dual.DEFAULT_CHUNK_FACES
    for start in range(0, len(fc), chunk):
        a, b = fc[start : start + chunk].T
        np.minimum(
            tau[a],
            tau[np.where(b >= 0, b, a)],
            out=out[start : start + len(a)],
            casting="unsafe",
        )
    return out
