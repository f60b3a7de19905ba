"""The Hilbert space-filling curve for geometric partitioning.

SFC partitioning is the classical CFD load-balancing method the
paper's conclusion cites (Aftosmis et al. [1]): sort cells along a
locality-preserving curve and cut the sequence into equal-cost chunks.
Consecutive points on the Hilbert curve are grid neighbours (no long
diagonal jumps, unlike the Z-order curve), which translates into fewer
cut faces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BITS", "hilbert_codes", "sfc_order"]

#: Bits per axis of the grid the points are quantized to: codes are
#: below ``2 ** (2 * BITS)``.
BITS = 16


def _quantize(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    scale = np.maximum(hi - lo, 1e-300)
    q = ((points - lo) / scale * ((1 << BITS) - 1)).astype(np.uint64)
    return q[:, 0], q[:, 1]


def hilbert_codes(points: np.ndarray) -> np.ndarray:
    """Hilbert-curve index of 2D points (vectorized xy→d transform) on
    a ``2**BITS`` × ``2**BITS`` grid over their bounding box.

    Standard bit-twiddling algorithm (Warren / Wikipedia ``xy2d``),
    applied to all points simultaneously.
    """
    x, y = _quantize(np.asarray(points, dtype=np.float64))
    x = x.astype(np.int64)
    y = y.astype(np.int64)
    d = np.zeros(len(x), dtype=np.int64)
    s = np.int64(1) << (BITS - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant so the curve stays continuous.
        rot = ry == 0
        flip = rot & (rx == 1)
        x_f = x[flip]
        y_f = y[flip]
        x[flip] = s - 1 - x_f
        y[flip] = s - 1 - y_f
        x_r = x[rot].copy()
        x[rot] = y[rot]
        y[rot] = x_r
        s >>= 1
    return d.astype(np.uint64)


def sfc_order(points: np.ndarray) -> np.ndarray:
    """Permutation sorting points along the Hilbert curve."""
    return np.argsort(hilbert_codes(points), kind="stable")
