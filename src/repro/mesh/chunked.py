"""Array-based (chunked) quadtree/octree mesh engines.

The object engines in :mod:`repro.mesh.quadtree` and
:mod:`repro.mesh.octree` build the tree as a dict of Python tuples —
clear, but at paper scale (1M+ cells) the tuples, the dict and the
per-face Python lists dominate both time and memory.  This module
re-implements refine / 2:1 balance / face extraction as chunked NumPy
array passes that never materialize O(cells) Python objects:

* **refine** — breadth-first frontier of ``(depth, i, j[, k])``
  arrays, split decisions evaluated vectorized per chunk (the split
  predicate depends only on the cell itself, so the leaf set matches
  the object engine's stack traversal exactly);
* **balance** — leaves live in one sorted array of packed int64 keys;
  each round marks too-coarse neighbours via vectorized ancestor
  lookups (``searchsorted`` membership) and splits them all at once.
  2:1 closure is confluent, so the fixpoint equals the object
  engine's work-list result;
* **faces** — per chunk of cells, neighbour resolution uses the 2:1
  guarantee (containing leaf at depth ``d`` or ``d-1``, else children
  at exactly ``d+1``) and a slot encoding replicates the object
  engine's per-cell emission order bit-for-bit.

Every floating-point expression mirrors the object engine's operation
order, so the produced :class:`~repro.mesh.structures.Mesh` arrays are
bit-identical — the object engine stays available as the differential
oracle (``engine="object"``).
"""

from __future__ import annotations

import numpy as np

from .structures import Mesh

__all__ = [
    "QUAD_ARRAY_MAX_DEPTH",
    "OCT_ARRAY_MAX_DEPTH",
    "DEFAULT_CHUNK_CELLS",
    "resolve_engine",
    "build_quadtree_arrays",
    "build_octree_arrays",
]

#: Morton normalization shifts coordinates to depth 24 (25-bit safe).
QUAD_ARRAY_MAX_DEPTH = 24
#: Packed octree keys give each of i/j/k 16 bits.
OCT_ARRAY_MAX_DEPTH = 16
#: Default number of cells processed per vectorized pass.
DEFAULT_CHUNK_CELLS = 1 << 17

_DIRS2 = ((-1, 0), (1, 0), (0, -1), (0, 1))
_DIRS3 = (
    (-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)
)
_CHILD2 = ((0, 0), (0, 1), (1, 0), (1, 1))
_CHILD3 = tuple(
    (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
)


def resolve_engine(engine: str | None, max_depth: int, limit: int) -> str:
    """Resolve the mesh ``engine`` knob to ``"array"`` or ``"object"``.

    ``None`` means the array engine, falling back to the object engine
    when ``max_depth`` exceeds the packed-key ``limit``; an
    *explicitly* requested array engine past the limit raises instead
    of silently degrading.
    """
    explicit = engine is not None
    engine = "array" if engine is None else engine.lower()
    if engine not in ("array", "object"):
        raise ValueError(
            f"unknown mesh engine {engine!r} (expected 'array' or 'object')"
        )
    if engine == "array" and max_depth > limit:
        if explicit:
            raise ValueError(
                f"array engine supports max_depth <= {limit}, got {max_depth}"
            )
        return "object"
    return engine


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _sizing_values(sizing, coords: list[np.ndarray]) -> np.ndarray:
    """Evaluate a sizing function over 1-D coordinate arrays.

    One vectorized call is attempted first; scalar-only callables
    (e.g. 3D sizings with chained comparisons) fall back to a
    per-point loop producing the exact values the object engine sees.
    """
    n = len(coords[0])
    try:
        out = np.asarray(sizing(*coords), dtype=np.float64)
        if out.shape == coords[0].shape:
            return out
        if out.ndim == 0:
            return np.full(n, float(out))
    except Exception:
        pass
    pts = [c.tolist() for c in coords]
    return np.array(
        [float(sizing(*p)) for p in zip(*pts)], dtype=np.float64
    )


def _member(sorted_keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Boolean membership of ``q`` in a sorted unique key array."""
    if sorted_keys.size == 0 or q.size == 0:
        return np.zeros(q.shape, dtype=bool)
    pos = np.minimum(
        np.searchsorted(sorted_keys, q), sorted_keys.size - 1
    )
    return sorted_keys[pos] == q


def _pack_quad(d, i, j):
    return (d << 48) | (i << 24) | j


def _unpack_quad(key):
    return [key >> 48, (key >> 24) & 0xFFFFFF, key & 0xFFFFFF]


def _pack_oct(d, i, j, k):
    return (d << 48) | (i << 32) | (j << 16) | k


def _unpack_oct(key):
    return [
        key >> 48,
        (key >> 32) & 0xFFFF,
        (key >> 16) & 0xFFFF,
        key & 0xFFFF,
    ]


def _spread2(v: np.ndarray) -> np.ndarray:
    """Interleave zeros between the low 32 bits of ``v`` (Morton)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


# ----------------------------------------------------------------------
# Refinement (dimension-generic)
# ----------------------------------------------------------------------
def _refine_grid(
    sizing,
    max_depth: int,
    min_depth: int,
    origin: tuple[float, ...],
    extent: float,
    chunk: int,
    dim: int,
) -> list[np.ndarray]:
    """Breadth-first chunked refinement; returns ``[d, c0, .., c_dim-1]``
    int64 leaf arrays (unordered)."""
    offsets = _CHILD2 if dim == 2 else _CHILD3
    keep: list[list[np.ndarray]] = []
    cur = [np.zeros(1, dtype=np.int64) for _ in range(dim + 1)]
    while cur[0].size:
        nxt: list[list[np.ndarray]] = [[] for _ in range(dim + 1)]
        for start in range(0, cur[0].size, chunk):
            d = cur[0][start : start + chunk]
            cs = [c[start : start + chunk] for c in cur[1:]]
            size = extent / (1 << d)
            centers = [
                origin[a] + (cs[a] + 0.5) * size for a in range(dim)
            ]
            want = _sizing_values(sizing, centers)
            split = (d < max_depth) & ((d < min_depth) | (size > want))
            if not split.all():
                k = ~split
                keep.append([d[k]] + [c[k] for c in cs])
            if split.any():
                sd = d[split] + 1
                scs = [c[split] * 2 for c in cs]
                for off in offsets:
                    nxt[0].append(sd)
                    for a in range(dim):
                        nxt[a + 1].append(scs[a] + off[a])
        if nxt[0]:
            cur = [np.concatenate(parts) for parts in nxt]
        else:
            cur = [np.empty(0, dtype=np.int64) for _ in range(dim + 1)]
    return [
        np.concatenate([blk[a] for blk in keep]) for a in range(dim + 1)
    ]


# ----------------------------------------------------------------------
# 2:1 balance (dimension-generic)
# ----------------------------------------------------------------------
def _balance_grid(
    leaf_arrays: list[np.ndarray],
    chunk: int,
    pack,
    unpack,
    dirs,
) -> list[np.ndarray]:
    """Enforce 2:1 balance on packed leaf keys; returns the balanced
    ``[d, c0, ...]`` arrays sorted by packed key.

    Each round: vectorized ancestor walk finds every leaf whose
    edge-neighbour's containing leaf is two or more levels coarser,
    splits all of them at once, and re-checks only the new children
    plus the leaves whose constraint fired (the closure is confluent,
    so any forced-split order reaches the same fixpoint as the object
    engine's work list).
    """
    dim = len(leaf_arrays) - 1
    offsets = _CHILD2 if dim == 2 else _CHILD3
    keys = np.sort(pack(*leaf_arrays))
    frontier = keys
    while frontier.size:
        split_parts: list[np.ndarray] = []
        recheck_parts: list[np.ndarray] = []
        for start in range(0, frontier.size, chunk):
            fk = frontier[start : start + chunk]
            fu = unpack(fk)
            fd = fu[0]
            side = 1 << fd
            for dvec in dirs:
                nc = [fu[a + 1] + dvec[a] for a in range(dim)]
                valid = np.ones(fd.shape, dtype=bool)
                for a in range(dim):
                    if dvec[a]:
                        valid &= (nc[a] >= 0) & (nc[a] < side)
                if not valid.any():
                    continue
                ad = fd[valid]
                ac = [c[valid] for c in nc]
                fkeys = fk[valid]
                # Neighbour at depth d or d-1 satisfies the constraint
                # (valid lanes always have d >= 1: a depth-0 root has
                # no in-range neighbours).
                ok = _member(keys, pack(ad, *ac))
                ok |= _member(keys, pack(ad - 1, *[c >> 1 for c in ac]))
                act = ~ok
                ad = ad[act]
                ac = [c[act] for c in ac]
                fkeys = fkeys[act]
                # Walk coarser ancestors: the first hit at depth
                # <= d-2 is a too-coarse containing leaf; no hit at
                # all means the neighbour is refined deeper (fine).
                s = 2
                while ad.size:
                    m = ad >= s
                    if not m.any():
                        break
                    ad = ad[m]
                    ac = [c[m] for c in ac]
                    fkeys = fkeys[m]
                    anc = pack(ad - s, *[c >> s for c in ac])
                    hit = _member(keys, anc)
                    if hit.any():
                        split_parts.append(anc[hit])
                        recheck_parts.append(fkeys[hit])
                        stay = ~hit
                        ad = ad[stay]
                        ac = [c[stay] for c in ac]
                        fkeys = fkeys[stay]
                    s += 1
        if not split_parts:
            break
        to_split = np.unique(np.concatenate(split_parts))
        recheck = np.unique(np.concatenate(recheck_parts))
        su = unpack(to_split)
        children = np.concatenate([
            pack(
                su[0] + 1,
                *[su[a + 1] * 2 + off[a] for a in range(dim)],
            )
            for off in offsets
        ])
        keys = np.setdiff1d(keys, to_split, assume_unique=True)
        keys = np.sort(np.concatenate([keys, children]))
        # A re-check candidate may itself have been split this round.
        recheck = np.setdiff1d(recheck, to_split, assume_unique=True)
        frontier = np.concatenate([children, recheck])
    return unpack(keys)


# ----------------------------------------------------------------------
# Face accumulation
# ----------------------------------------------------------------------
class _FaceChunk:
    """Collects one chunk's face entries and replays the object
    engine's per-cell emission order via ``cell * nslots + slot``
    sort keys."""

    def __init__(self, idx: np.ndarray, nslots: int) -> None:
        self._idx = idx
        self._nslots = nslots
        self._parts: list[tuple[np.ndarray, ...]] = []

    def add(self, mask, slot, b, area, nx, ny, fx, fy) -> None:
        sel = np.flatnonzero(mask)
        if sel.size == 0:
            return
        shape = mask.shape
        self._parts.append((
            self._idx[sel] * self._nslots + slot,
            self._idx[sel],
            np.broadcast_to(np.asarray(b, dtype=np.int64), shape)[sel],
            np.broadcast_to(area, shape)[sel],
            np.full(sel.size, nx),
            np.full(sel.size, ny),
            np.broadcast_to(fx, shape)[sel],
            np.broadcast_to(fy, shape)[sel],
        ))

    def assembled(self):
        """Returns (face_cells, face_area, face_normal, face_center)
        arrays for this chunk, in emission order."""
        cols = [np.concatenate(c) for c in zip(*self._parts)]
        order = np.argsort(cols[0])  # keys are unique per (cell, slot)
        a, b = cols[1][order], cols[2][order]
        return (
            np.stack([a, b], axis=1),
            cols[3][order],
            np.stack([cols[4][order], cols[5][order]], axis=1),
            np.stack([cols[6][order], cols[7][order]], axis=1),
        )


def _make_lookup(pk: np.ndarray):
    """Packed-key → cell-index lookup over the final cell ordering."""
    lorder = np.argsort(pk)
    pks = pk[lorder]

    def lookup(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.minimum(np.searchsorted(pks, q), pks.size - 1)
        found = pks[pos] == q
        return np.where(found, lorder[pos], -1), found

    return lookup


# ----------------------------------------------------------------------
# Quadtree
# ----------------------------------------------------------------------
def build_quadtree_arrays(
    sizing,
    *,
    max_depth: int,
    min_depth: int = 2,
    origin: tuple[float, float] = (0.0, 0.0),
    extent: float = 1.0,
    chunk_cells: int | None = None,
) -> Mesh:
    """Array-engine quadtree build; bit-identical to the object engine
    in :func:`repro.mesh.quadtree.build_quadtree_mesh`."""
    if max_depth > QUAD_ARRAY_MAX_DEPTH:
        raise ValueError(
            f"array engine supports max_depth <= {QUAD_ARRAY_MAX_DEPTH}"
        )
    chunk = max(1, int(chunk_cells or DEFAULT_CHUNK_CELLS))
    leaves = _refine_grid(
        sizing, max_depth, min_depth, origin, extent, chunk, 2
    )
    bd, bi, bj = _balance_grid(
        leaves, chunk, _pack_quad, _unpack_quad, _DIRS2
    )

    # Morton (z-curve) cell order: normalize anchors to depth 24 and
    # interleave — identical to the object engine's bit loop.
    sh = 24 - bd
    code = (_spread2((bi << sh).astype(np.uint64)) << np.uint64(1)) | (
        _spread2((bj << sh).astype(np.uint64))
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

    lookup = _make_lookup(_pack_quad(d64, i64, j64))

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
        acc = _FaceChunk(idx, 6)

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


# ----------------------------------------------------------------------
# Octree
# ----------------------------------------------------------------------
# High-side in-face child offsets per axis — must match the object
# engine's _DIRS table exactly (slot order at refined interfaces).
_OCT_CHILD_OFFSETS = (
    ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)),
    ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1)),
    ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),
)


def build_octree_arrays(
    sizing,
    *,
    max_depth: int,
    min_depth: int = 2,
    chunk_cells: int | None = None,
) -> tuple[Mesh, np.ndarray]:
    """Array-engine octree build; bit-identical to the object engine
    in :func:`repro.mesh.octree.build_octree_mesh`."""
    if max_depth > OCT_ARRAY_MAX_DEPTH:
        raise ValueError(
            f"array engine supports max_depth <= {OCT_ARRAY_MAX_DEPTH}"
        )
    chunk = max(1, int(chunk_cells or DEFAULT_CHUNK_CELLS))
    leaves = _refine_grid(
        sizing, max_depth, min_depth, (0.0, 0.0, 0.0), 1.0, chunk, 3
    )
    balanced = _balance_grid(
        leaves, chunk, _pack_oct, _unpack_oct, _DIRS3
    )
    # Packed-key order IS lexicographic (d, i, j, k) — the object
    # engine's sorted(leaves) cell order.
    order = np.argsort(_pack_oct(*balanced), kind="stable")
    d64, i64, j64, k64 = (c[order] for c in balanced)
    n = d64.size

    depth = d64.astype(np.int32)
    size = 1.0 / (1 << depth).astype(np.float64)
    coords = np.stack([i64, j64, k64], axis=1).astype(np.float64)
    centers3 = (coords + 0.5) * size[:, None]
    volumes = size**3

    lookup = _make_lookup(_pack_oct(d64, i64, j64, k64))

    fc_parts, area_parts, nrm_parts, ctr_parts = [], [], [], []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d = d64[start:stop]
        bases = [i64[start:stop], j64[start:stop], k64[start:stop]]
        idx = np.arange(start, stop, dtype=np.int64)
        s = 1.0 / (1 << d)
        side = 1 << d
        ctr = [(bases[a] + 0.5) * s for a in range(3)]
        acc = _FaceChunk(idx, 15)

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
