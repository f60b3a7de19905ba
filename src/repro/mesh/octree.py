"""Adaptive 3D octree mesh generation.

The paper's production meshes are 3D; the 2D quadtree replicas
reproduce their τ-distributions but not their 3D connectivity (a 3D
cell has up to 6+ neighbours, and level-class surface/volume ratios
scale differently).  This module provides the 3D analogue of
:mod:`repro.mesh.quadtree`: a 2:1-balanced octree whose leaves are the
cells, with faces extracted between adjacent leaves (up to four fine
faces per coarse side) and on the domain boundary.

The resulting :class:`~repro.mesh.structures.Mesh` reuses the 2D
container (cell centres carry the first two coordinates; the full 3D
centres are returned separately) — everything downstream of the dual
graph (partitioning, task generation, FLUSIM) is dimension-agnostic,
which is exactly what the 3D experiments exercise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import chunked
from .chunked import FaceChunk, balance_grid, make_lookup, refine_grid
from .structures import Mesh

__all__ = ["build_octree_mesh", "octree_cylinder_mesh", "OCT_MAX_DEPTH"]

Sizing3D = Callable[[float, float, float], float]

#: Packed octree keys give each of i/j/k 16 bits.
OCT_MAX_DEPTH = 16

_DIRS3 = (
    (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)
)

# High-side in-face child offsets per axis (+x, +y, +z): the slot
# order of the four fine faces at a refined interface.
_OCT_CHILD_OFFSETS = (
    ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)),
    ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),
)


def _pack_oct(d, i, j, k):
    return (d << 48) | (i << 32) | (j << 16) | k


def _unpack_oct(key):
    return [
        key >> 48,
        (key >> 32) & 0xFFFF,
        (key >> 16) & 0xFFFF,
        key & 0xFFFF,
    ]


def build_octree_mesh(
    sizing: Sizing3D,
    *,
    max_depth: int,
    min_depth: int = 2,
) -> tuple[Mesh, np.ndarray]:
    """Build a 2:1-balanced octree finite-volume mesh on the unit
    cube.

    ``max_depth`` may not exceed :data:`OCT_MAX_DEPTH`.  Scalar-only
    sizing callables are evaluated per point.  Cells are in
    lexicographic ``(depth, i, j, k)`` order.

    Returns ``(mesh, centers3d)``: the dimension-agnostic
    :class:`Mesh` (cell volumes are true 3D volumes, face areas true
    face areas; ``cell_centers``/``face_normal`` carry the x/y
    components, z-faces carrying a +x tag) plus the full ``(n, 3)``
    cell centres.
    """
    if max_depth > OCT_MAX_DEPTH:
        raise ValueError(
            f"octree meshes support max_depth <= {OCT_MAX_DEPTH}"
        )
    chunk = chunked.DEFAULT_CHUNK_CELLS
    leaves = refine_grid(
        sizing, max_depth, min_depth, (0.0, 0.0, 0.0), 1.0, chunk, 3
    )
    balanced = balance_grid(
        leaves, chunk, _pack_oct, _unpack_oct, _DIRS3
    )
    # Packed-key order is lexicographic (d, i, j, k).
    order = np.argsort(_pack_oct(*balanced), kind="stable")
    d64, i64, j64, k64 = (c[order] for c in balanced)
    n = d64.size

    depth = d64.astype(np.int32)
    size = 1.0 / (1 << depth).astype(np.float64)
    coords = np.stack([i64, j64, k64], axis=1).astype(np.float64)
    centers3 = (coords + 0.5) * size[:, None]
    volumes = size**3

    lookup = make_lookup(_pack_oct(d64, i64, j64, k64))

    fc_parts, area_parts, nrm_parts, ctr_parts = [], [], [], []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d = d64[start:stop]
        bases = [i64[start:stop], j64[start:stop], k64[start:stop]]
        idx = np.arange(start, stop, dtype=np.int64)
        s = 1.0 / (1 << d)
        side = 1 << d
        ctr = [(bases[a] + 0.5) * s for a in range(3)]
        acc = FaceChunk(idx, 15)

        for axis in range(3):
            bslot = axis * 5
            nx, ny = (1.0, 0.0) if axis in (0, 2) else (0.0, 1.0)
            # Low-side boundary face.
            flo = [
                ctr[a] - 0.5 * s if a == axis else ctr[a]
                for a in range(2)
            ]
            acc.add(
                bases[axis] == 0, bslot, -1, s * s, nx, ny, flo[0], flo[1]
            )
            # High side: boundary, equal/coarser neighbour, or four
            # refined child faces.
            bnd = (bases[axis] + 1) == side
            inner = ~bnd
            ncoords = [
                bases[a] + 1 if a == axis else bases[a] for a in range(3)
            ]
            nb_idx, nb_f = lookup(_pack_oct(d, *ncoords))
            p_idx, p_f = lookup(
                _pack_oct(d - 1, *[c >> 1 for c in ncoords])
            )
            same = inner & nb_f
            childc = inner & ~nb_f & ~p_f
            b0 = np.where(bnd, -1, np.where(same, nb_idx, p_idx))
            fhi = [
                ctr[a] + 0.5 * s if a == axis else ctr[a]
                for a in range(2)
            ]
            acc.add(~childc, bslot + 1, b0, s * s, nx, ny, fhi[0], fhi[1])
            p2 = 1 << (d + 1)
            for t, off in enumerate(_OCT_CHILD_OFFSETS[axis]):
                ccoords = [2 * ncoords[a] + off[a] for a in range(3)]
                ck, _ = lookup(_pack_oct(d + 1, *ccoords))
                fcc = [
                    (ccoords[a] + 0.5) / p2
                    - (0.5 / p2 if a == axis else 0.0)
                    for a in range(2)
                ]
                acc.add(
                    childc,
                    bslot + 1 + t,
                    ck,
                    (s / 2) ** 2,
                    nx,
                    ny,
                    fcc[0],
                    fcc[1],
                )

        fc, fa, fn, fctr = acc.assembled()
        fc_parts.append(fc)
        area_parts.append(fa)
        nrm_parts.append(fn)
        ctr_parts.append(fctr)

    mesh = Mesh(
        cell_centers=centers3[:, :2].copy(),
        cell_volumes=volumes,
        cell_depth=depth,
        face_cells=np.concatenate(fc_parts),
        face_area=np.concatenate(area_parts),
        face_normal=np.concatenate(nrm_parts),
        face_center=np.concatenate(ctr_parts),
    )
    return mesh, centers3


def octree_cylinder_mesh(
    *,
    max_depth: int = 7,
    min_depth: int = 4,
) -> tuple[Mesh, np.ndarray]:
    """3D CYLINDER-like case: a thin fine shell around a vertical axis
    segment at the cube's centre, coarsening radially — the 3D
    analogue of :func:`repro.mesh.generators.cylinder_mesh`, with the
    paper-style coarse-majority τ-distribution."""
    h = 1.0 / (1 << max_depth)
    r_core = 0.03

    def sizing(x: float, y: float, z: float) -> float:
        r = float(np.hypot(x - 0.5, y - 0.5))
        in_height = 0.45 <= z <= 0.55
        if in_height and abs(r - r_core) <= 0.75 * h:
            return h
        if in_height and r <= r_core + 5.0 * h:
            return 2.0 * h
        if r <= 0.15 and 0.4 <= z <= 0.6:
            return 4.0 * h
        return 8.0 * h

    return build_octree_mesh(sizing, max_depth=max_depth, min_depth=min_depth)
