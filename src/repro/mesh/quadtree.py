"""Adaptive quadtree mesh generation.

The paper's meshes are graded unstructured finite-volume meshes whose
cell volumes span several octaves — exactly the structure a 2:1
balanced adaptive quadtree produces.  A *sizing function* ``h(x, y)``
prescribes the desired cell edge length at every point; leaves are
split until they satisfy it, then a 2:1 balance pass limits the depth
jump between edge-neighbours to one (which is also what gives the
paper's meshes their gradual temporal-level transitions).

Cells are the quadtree leaves.  Faces are extracted between
edge-adjacent leaves (one face for equal-depth neighbours, two for a
coarse-fine interface) plus domain-boundary faces, giving a complete
finite-volume mesh ready for :mod:`repro.solver`.  Refinement, balance
and face extraction are chunked array passes (:mod:`repro.mesh.chunked`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import chunked
from .chunked import (
    FaceChunk,
    balance_grid,
    make_lookup,
    refine_grid,
    spread2,
)
from .structures import Mesh

__all__ = ["build_quadtree_mesh", "QUAD_MAX_DEPTH"]

SizingFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Morton normalization shifts coordinates to depth 24 (25-bit safe).
QUAD_MAX_DEPTH = 24

_DIRS2 = ((-1, 0), (1, 0), (0, -1), (0, 1))


def _pack_quad(d, i, j):
    return (d << 48) | (i << 24) | j


def _unpack_quad(key):
    return [key >> 48, (key >> 24) & 0xFFFFFF, key & 0xFFFFFF]


def build_quadtree_mesh(
    sizing: SizingFn,
    *,
    max_depth: int,
    min_depth: int = 2,
    origin: tuple[float, float] = (0.0, 0.0),
    extent: float = 1.0,
) -> Mesh:
    """Build a 2:1-balanced quadtree finite-volume mesh.

    Parameters
    ----------
    sizing:
        Vectorizable function mapping coordinates to the desired cell
        edge length at that point.  A leaf of edge ``s`` is split while
        ``s > sizing(center)`` (and ``depth < max_depth``).
    max_depth / min_depth:
        Depth bounds; ``max_depth`` caps the finest resolution, hence
        also the number of distinct cell sizes ``max_depth - min_depth
        + 1``.  ``max_depth`` may not exceed :data:`QUAD_MAX_DEPTH`.
    origin, extent:
        The square domain ``[ox, ox+extent] × [oy, oy+extent]``.

    Returns
    -------
    :class:`~repro.mesh.structures.Mesh` with cells sorted by Morton
    (z-curve) order of their quadtree coordinates, which keeps
    spatially close cells close in memory.  Within a cell, faces come
    east, north, west boundary, south boundary.
    """
    if max_depth > QUAD_MAX_DEPTH:
        raise ValueError(
            f"quadtree meshes support max_depth <= {QUAD_MAX_DEPTH}"
        )
    chunk = chunked.DEFAULT_CHUNK_CELLS
    leaves = refine_grid(
        sizing, max_depth, min_depth, origin, extent, chunk, 2
    )
    bd, bi, bj = balance_grid(
        leaves, chunk, _pack_quad, _unpack_quad, _DIRS2
    )

    # Morton (z-curve) cell order: normalize anchors to depth 24 and
    # interleave, depth breaking ties.
    sh = 24 - bd
    code = (spread2((bi << sh).astype(np.uint64)) << np.uint64(1)) | (
        spread2((bj << sh).astype(np.uint64))
    )
    skey = (code << np.uint64(5)) | bd.astype(np.uint64)
    order = np.argsort(skey, kind="stable")
    d64, i64, j64 = bd[order], bi[order], bj[order]
    n = d64.size

    ox, oy = origin
    depth = d64.astype(np.int32)
    size = extent / (1 << depth).astype(np.float64)
    centers = np.stack(
        [ox + (i64 + 0.5) * size, oy + (j64 + 0.5) * size], axis=1
    )
    volumes = size * size

    lookup = make_lookup(_pack_quad(d64, i64, j64))

    fc_parts, area_parts, nrm_parts, ctr_parts = [], [], [], []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d = d64[start:stop]
        i = i64[start:stop]
        j = j64[start:stop]
        idx = np.arange(start, stop, dtype=np.int64)
        s = extent / (1 << d)
        x0 = ox + i * s
        y0 = oy + j * s
        side = 1 << d
        acc = FaceChunk(idx, 6)

        # --- east side (+x): slot 0 (and 1 at refined interfaces) ----
        bnd = (i + 1) == side
        inner = ~bnd
        nb_idx, nb_f = lookup(_pack_quad(d, i + 1, j))
        p_idx, p_f = lookup(_pack_quad(d - 1, (i + 1) >> 1, j >> 1))
        same = inner & nb_f
        childc = inner & ~nb_f & ~p_f
        b0 = np.where(bnd, -1, np.where(same, nb_idx, p_idx))
        acc.add(~childc, 0, b0, s, 1.0, 0.0, x0 + s, y0 + 0.5 * s)
        c0, _ = lookup(_pack_quad(d + 1, 2 * (i + 1), 2 * j))
        c1, _ = lookup(_pack_quad(d + 1, 2 * (i + 1), 2 * j + 1))
        acc.add(childc, 0, c0, s / 2, 1.0, 0.0, x0 + s, y0 + 0.5 * s / 2)
        acc.add(childc, 1, c1, s / 2, 1.0, 0.0, x0 + s, y0 + 1.5 * s / 2)

        # --- north side (+y): slot 2 (and 3) -------------------------
        bnd = (j + 1) == side
        inner = ~bnd
        nb_idx, nb_f = lookup(_pack_quad(d, i, j + 1))
        p_idx, p_f = lookup(_pack_quad(d - 1, i >> 1, (j + 1) >> 1))
        same = inner & nb_f
        childc = inner & ~nb_f & ~p_f
        b0 = np.where(bnd, -1, np.where(same, nb_idx, p_idx))
        acc.add(~childc, 2, b0, s, 0.0, 1.0, x0 + 0.5 * s, y0 + s)
        c0, _ = lookup(_pack_quad(d + 1, 2 * i, 2 * (j + 1)))
        c1, _ = lookup(_pack_quad(d + 1, 2 * i + 1, 2 * (j + 1)))
        acc.add(childc, 2, c0, s / 2, 0.0, 1.0, x0 + 0.5 * s / 2, y0 + s)
        acc.add(childc, 3, c1, s / 2, 0.0, 1.0, x0 + 1.5 * s / 2, y0 + s)

        # --- west / south boundaries: slots 4, 5 ---------------------
        acc.add(i == 0, 4, -1, s, -1.0, 0.0, x0, y0 + 0.5 * s)
        acc.add(j == 0, 5, -1, s, 0.0, -1.0, x0 + 0.5 * s, y0)

        fc, fa, fn, fctr = acc.assembled()
        fc_parts.append(fc)
        area_parts.append(fa)
        nrm_parts.append(fn)
        ctr_parts.append(fctr)

    return Mesh(
        cell_centers=centers,
        cell_volumes=volumes,
        cell_depth=depth,
        face_cells=np.concatenate(fc_parts),
        face_area=np.concatenate(area_parts),
        face_normal=np.concatenate(nrm_parts),
        face_center=np.concatenate(ctr_parts),
    )
