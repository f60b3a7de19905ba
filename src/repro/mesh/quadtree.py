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
finite-volume mesh ready for :mod:`repro.solver`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .structures import Mesh

__all__ = ["build_quadtree_mesh"]

SizingFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _refine(
    sizing: SizingFn,
    max_depth: int,
    min_depth: int,
    origin: tuple[float, float],
    extent: float,
) -> dict[tuple[int, int, int], None]:
    """Split leaves until every leaf satisfies the sizing function."""
    leaves: dict[tuple[int, int, int], None] = {(0, 0, 0): None}
    queue: list[tuple[int, int, int]] = [(0, 0, 0)]
    ox, oy = origin
    while queue:
        d, i, j = queue.pop()
        if (d, i, j) not in leaves:
            continue
        size = extent / (1 << d)
        cx = ox + (i + 0.5) * size
        cy = oy + (j + 0.5) * size
        want = float(sizing(np.asarray(cx), np.asarray(cy)))
        if d < max_depth and (d < min_depth or size > want):
            del leaves[(d, i, j)]
            for di in (0, 1):
                for dj in (0, 1):
                    child = (d + 1, 2 * i + di, 2 * j + dj)
                    leaves[child] = None
                    queue.append(child)
    return leaves


def _leaf_containing(
    leaves: dict[tuple[int, int, int], None], d: int, i: int, j: int
) -> tuple[int, int, int] | None:
    """Find the leaf containing cell (d, i, j), walking up ancestors."""
    while d >= 0:
        if (d, i, j) in leaves:
            return (d, i, j)
        d, i, j = d - 1, i >> 1, j >> 1
    return None


def _balance(leaves: dict[tuple[int, int, int], None]) -> None:
    """Enforce 2:1 balance: adjacent leaves differ by at most one depth."""
    work = sorted(leaves, key=lambda t: -t[0])
    while work:
        d, i, j = work.pop()
        if (d, i, j) not in leaves:
            continue
        side = 1 << d
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if not (0 <= ni < side and 0 <= nj < side):
                continue
            nb = _leaf_containing(leaves, d, ni, nj)
            if nb is None:
                continue  # neighbour is refined deeper — fine
            nd, nii, njj = nb
            if nd < d - 1:
                # Too coarse: split it and revisit.
                del leaves[nb]
                children = []
                for di in (0, 1):
                    for dj in (0, 1):
                        c = (nd + 1, 2 * nii + di, 2 * njj + dj)
                        leaves[c] = None
                        children.append(c)
                work.extend(children)
                work.append((d, i, j))  # re-check current leaf
                break


def build_quadtree_mesh(
    sizing: SizingFn,
    *,
    max_depth: int,
    min_depth: int = 2,
    origin: tuple[float, float] = (0.0, 0.0),
    extent: float = 1.0,
    engine: str | None = None,
    chunk_cells: int | None = None,
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
        + 1``.
    origin, extent:
        The square domain ``[ox, ox+extent] × [oy, oy+extent]``.
    engine:
        ``"array"`` — chunked NumPy build (the default; required for
        paper-scale meshes); ``"object"`` — the original dict/tuple
        build, kept as the differential oracle.  Both engines
        produce bit-identical meshes.
    chunk_cells:
        Cells per vectorized pass of the array engine (bounds its
        transient memory; irrelevant to the result).

    Returns
    -------
    :class:`~repro.mesh.structures.Mesh` with cells sorted by Morton
    (z-curve) order of their quadtree coordinates, which keeps
    spatially close cells close in memory.
    """
    from .chunked import (
        QUAD_ARRAY_MAX_DEPTH,
        build_quadtree_arrays,
        resolve_engine,
    )

    if resolve_engine(engine, max_depth, QUAD_ARRAY_MAX_DEPTH) == "array":
        return build_quadtree_arrays(
            sizing,
            max_depth=max_depth,
            min_depth=min_depth,
            origin=origin,
            extent=extent,
            chunk_cells=chunk_cells,
        )
    leaves = _refine(sizing, max_depth, min_depth, origin, extent)
    _balance(leaves)

    # Morton-order the leaves for locality.
    def morton(key: tuple[int, int, int]) -> tuple[int, int]:
        d, i, j = key
        # Normalize coordinates to max depth for a common z-order.
        shift = 24 - d
        ii, jj = i << shift, j << shift
        code = 0
        for b in range(25):
            code |= ((ii >> b) & 1) << (2 * b + 1)
            code |= ((jj >> b) & 1) << (2 * b)
        return (code, d)

    keys = sorted(leaves, key=morton)
    index = {k: idx for idx, k in enumerate(keys)}
    n = len(keys)

    ox, oy = origin
    depth = np.array([k[0] for k in keys], dtype=np.int32)
    size = extent / (1 << depth).astype(np.float64)
    ci = np.array([k[1] for k in keys], dtype=np.int64)
    cj = np.array([k[2] for k in keys], dtype=np.int64)
    centers = np.stack(
        [ox + (ci + 0.5) * size, oy + (cj + 0.5) * size], axis=1
    )
    volumes = size * size

    face_cells: list[tuple[int, int]] = []
    face_area: list[float] = []
    face_normal: list[tuple[float, float]] = []
    face_center: list[tuple[float, float]] = []

    def emit(a: int, b: int, area: float, nx: float, ny: float, fx: float, fy: float):
        face_cells.append((a, b))
        face_area.append(area)
        face_normal.append((nx, ny))
        face_center.append((fx, fy))

    for idx, (d, i, j) in enumerate(keys):
        s = extent / (1 << d)
        x0 = ox + i * s
        y0 = oy + j * s
        side = 1 << d
        # --- east side (+x) ------------------------------------------------
        if i + 1 == side:
            emit(idx, -1, s, 1.0, 0.0, x0 + s, y0 + 0.5 * s)
        else:
            nb = _leaf_containing(leaves, d, i + 1, j)
            if nb is not None:
                emit(idx, index[nb], s, 1.0, 0.0, x0 + s, y0 + 0.5 * s)
            else:
                # Neighbour refined one level deeper (2:1 balance).
                for dj in (0, 1):
                    child = (d + 1, 2 * (i + 1), 2 * j + dj)
                    emit(
                        idx,
                        index[child],
                        s / 2,
                        1.0,
                        0.0,
                        x0 + s,
                        y0 + (dj + 0.5) * s / 2,
                    )
        # --- north side (+y) ----------------------------------------------
        if j + 1 == side:
            emit(idx, -1, s, 0.0, 1.0, x0 + 0.5 * s, y0 + s)
        else:
            nb = _leaf_containing(leaves, d, i, j + 1)
            if nb is not None:
                # Emit only from the smaller-or-equal cell to avoid
                # duplicates: if the neighbour is larger it will not
                # emit this face (it looks north with its own size),
                # so the smaller cell (us) must emit it.
                emit(idx, index[nb], s, 0.0, 1.0, x0 + 0.5 * s, y0 + s)
            else:
                for di in (0, 1):
                    child = (d + 1, 2 * i + di, 2 * (j + 1))
                    emit(
                        idx,
                        index[child],
                        s / 2,
                        0.0,
                        1.0,
                        x0 + (di + 0.5) * s / 2,
                        y0 + s,
                    )
        # --- west boundary -------------------------------------------------
        if i == 0:
            emit(idx, -1, s, -1.0, 0.0, x0, y0 + 0.5 * s)
        # --- south boundary ------------------------------------------------
        if j == 0:
            emit(idx, -1, s, 0.0, -1.0, x0 + 0.5 * s, y0)

    return Mesh(
        cell_centers=centers,
        cell_volumes=volumes,
        cell_depth=depth,
        face_cells=np.array(face_cells, dtype=np.int64).reshape(-1, 2),
        face_area=np.array(face_area, dtype=np.float64),
        face_normal=np.array(face_normal, dtype=np.float64).reshape(-1, 2),
        face_center=np.array(face_center, dtype=np.float64).reshape(-1, 2),
    )
