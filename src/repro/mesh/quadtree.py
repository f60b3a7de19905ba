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
and face extraction are chunked array passes (:mod:`repro.mesh.chunked`):
the faces are counted, then written in place by
:func:`~repro.mesh.chunked.assemble_faces`, and each whole-mesh
temporary is dropped once consumed, so the builder peaks at its output
plus the neighbour lookup and one chunk's temporaries.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import chunked
from .chunked import (
    assemble_faces,
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
) -> Mesh:
    """Build a 2:1-balanced quadtree finite-volume mesh of the unit
    square ``[0, 1] × [0, 1]``.

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
    bd, bi, bj = balance_grid(
        refine_grid(sizing, max_depth, min_depth, chunk, 2, _pack_quad),
        chunk, _pack_quad, _unpack_quad, _DIRS2,
    )

    # Morton (z-curve) cell order: normalize anchors to depth 24 and
    # interleave, depth breaking ties.  Every whole-mesh temporary is
    # dropped as soon as the next step has consumed it.
    sh = 24 - bd
    code = (spread2((bi << sh).astype(np.uint64)) << np.uint64(1)) | (
        spread2((bj << sh).astype(np.uint64))
    )
    del sh
    skey = (code << np.uint64(5)) | bd.astype(np.uint64)
    del code
    order = np.argsort(skey, kind="stable")
    del skey
    d64, i64, j64 = bd[order], bi[order], bj[order]
    del bd, bi, bj, order
    n = d64.size

    depth = d64.astype(np.int32)
    size = 1.0 / (1 << depth).astype(np.float64)
    centers = np.stack([(i64 + 0.5) * size, (j64 + 0.5) * size], axis=1)
    volumes = size * size
    del size

    lookup = make_lookup(_pack_quad(d64, i64, j64))

    def chunk_faces(start: int, stop: int, acc) -> None:
        d = d64[start:stop]
        i = i64[start:stop]
        j = j64[start:stop]
        s = 1.0 / (1 << d)
        x0 = i * s
        y0 = j * s
        side = 1 << d

        # --- east side (+x): slot 0 (and 1 at refined interfaces) ----
        bnd = (i + 1) == side
        inner = ~bnd
        nb_idx, nb_f = lookup(_pack_quad(d, i + 1, j), inner)
        p_idx, p_f = lookup(
            _pack_quad(d - 1, (i + 1) >> 1, j >> 1), inner & ~nb_f
        )
        same = inner & nb_f
        childc = inner & ~nb_f & ~p_f
        b0 = np.where(bnd, -1, np.where(same, nb_idx, p_idx))
        acc.add(~childc, b0, s, 1.0, 0.0, x0 + s, y0 + 0.5 * s)
        c0, _ = lookup(_pack_quad(d + 1, 2 * (i + 1), 2 * j), childc)
        c1, _ = lookup(_pack_quad(d + 1, 2 * (i + 1), 2 * j + 1), childc)
        acc.add(childc, c0, s / 2, 1.0, 0.0, x0 + s, y0 + 0.5 * s / 2)
        acc.add(childc, c1, s / 2, 1.0, 0.0, x0 + s, y0 + 1.5 * s / 2)

        # --- north side (+y): slot 2 (and 3) -------------------------
        bnd = (j + 1) == side
        inner = ~bnd
        nb_idx, nb_f = lookup(_pack_quad(d, i, j + 1), inner)
        p_idx, p_f = lookup(
            _pack_quad(d - 1, i >> 1, (j + 1) >> 1), inner & ~nb_f
        )
        same = inner & nb_f
        childc = inner & ~nb_f & ~p_f
        b0 = np.where(bnd, -1, np.where(same, nb_idx, p_idx))
        acc.add(~childc, b0, s, 0.0, 1.0, x0 + 0.5 * s, y0 + s)
        c0, _ = lookup(_pack_quad(d + 1, 2 * i, 2 * (j + 1)), childc)
        c1, _ = lookup(_pack_quad(d + 1, 2 * i + 1, 2 * (j + 1)), childc)
        acc.add(childc, c0, s / 2, 0.0, 1.0, x0 + 0.5 * s / 2, y0 + s)
        acc.add(childc, c1, s / 2, 0.0, 1.0, x0 + 1.5 * s / 2, y0 + s)

        # --- west / south boundaries: slots 4, 5 ---------------------
        acc.add(i == 0, -1, s, -1.0, 0.0, x0, y0 + 0.5 * s)
        acc.add(j == 0, -1, s, 0.0, -1.0, x0 + 0.5 * s, y0)

    face_cells, face_area, face_normal, face_center = assemble_faces(
        n, chunk, chunk_faces
    )
    return Mesh(
        cell_centers=centers,
        cell_volumes=volumes,
        cell_depth=depth,
        face_cells=face_cells,
        face_area=face_area,
        face_normal=face_normal,
        face_center=face_center,
    )
