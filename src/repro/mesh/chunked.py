"""Chunked array passes behind the quadtree and octree mesh builders.

:func:`repro.mesh.quadtree.build_quadtree_mesh` and
:func:`repro.mesh.octree.build_octree_mesh` run refine / 2:1 balance /
face extraction as NumPy array passes over chunks of at most
:data:`DEFAULT_CHUNK_CELLS` cells, never materializing O(cells) Python
objects:

* **refine** — breadth-first frontier of ``(depth, i, j[, k])``
  arrays, split decisions evaluated vectorized per chunk (the split
  predicate depends only on the cell itself, so the leaf set does not
  depend on traversal order or chunk size); the leaves are kept as
  packed int64 keys;
* **balance** — leaves live in one sorted array of packed int64 keys;
  each round marks too-coarse neighbours via vectorized ancestor
  lookups (``searchsorted`` membership) and splits them all at once.
  2:1 closure is confluent, so any split order reaches the same
  fixpoint;
* **faces** — :func:`assemble_faces`, the one face-assembly path of
  both builders: per chunk of cells, neighbour resolution uses the
  2:1 guarantee (containing leaf at depth ``d`` or ``d-1``, else
  children at exactly ``d+1``, searched only where they exist); a
  first pass counts each cell's faces, a second writes them in slot
  order straight into the preallocated face arrays.

What a builder holds at its peak is its output, the packed-key lookup
and one chunk's temporaries; the builders drop each whole-mesh
temporary as soon as it is consumed.  The chunk size sets only the
last term: the meshes are byte-identical for any positive value
(``tests/test_outofcore.py::TestChunkedBuilders``; the golden mesh
hashes in ``tests/golden/chain_outputs.json``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_CELLS",
    "assemble_faces",
    "balance_grid",
    "make_lookup",
    "refine_grid",
    "spread2",
]

#: Number of cells processed per vectorized pass.  2**15 built the
#: 357k- and 1.42M-cell cylinders faster than 2**14, 2**16 and 2**17,
#: at 6 MiB less RSS than 2**17 on the smaller one (EXPERIMENTS.md "The
#: scale chain's memory high-water").
DEFAULT_CHUNK_CELLS = 1 << 15

_CHILD2 = ((0, 0), (0, 1), (1, 0), (1, 1))
_CHILD3 = tuple(
    (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _sizing_values(sizing, coords: list[np.ndarray]) -> np.ndarray:
    """Evaluate a sizing function over 1-D coordinate arrays.

    One vectorized call is attempted first; scalar-only callables
    (e.g. 3D sizings with chained comparisons) fall back to a
    per-point loop over Python floats.
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


def spread2(v: np.ndarray) -> np.ndarray:
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
def refine_grid(
    sizing,
    max_depth: int,
    min_depth: int,
    chunk: int,
    dim: int,
    pack,
) -> np.ndarray:
    """Breadth-first chunked refinement of the unit square or cube;
    returns the leaves as packed int64 keys, ``pack(d, c0, ..,
    c_dim-1)`` (unordered)."""
    offsets = _CHILD2 if dim == 2 else _CHILD3
    keep: list[np.ndarray] = []
    cur = [np.zeros(1, dtype=np.int64) for _ in range(dim + 1)]
    while cur[0].size:
        nxt: list[list[np.ndarray]] = [[] for _ in range(dim + 1)]
        for start in range(0, cur[0].size, chunk):
            d = cur[0][start : start + chunk]
            cs = [c[start : start + chunk] for c in cur[1:]]
            size = 1.0 / (1 << d)
            centers = [(cs[a] + 0.5) * size for a in range(dim)]
            want = _sizing_values(sizing, centers)
            split = (d < max_depth) & ((d < min_depth) | (size > want))
            if not split.all():
                k = ~split
                keep.append(pack(d[k], *[c[k] for c in cs]))
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
    return np.concatenate(keep)


# ----------------------------------------------------------------------
# 2:1 balance (dimension-generic)
# ----------------------------------------------------------------------
def balance_grid(
    keys: np.ndarray,
    chunk: int,
    pack,
    unpack,
    dirs,
) -> list[np.ndarray]:
    """Enforce 2:1 balance on packed leaf keys (sorted in place);
    returns the balanced ``[d, c0, ...]`` arrays sorted by packed key.

    Each round: vectorized ancestor walk finds every leaf whose
    edge-neighbour's containing leaf is two or more levels coarser,
    splits all of them at once, and re-checks only the new children
    plus the leaves whose constraint fired (the closure is confluent,
    so any forced-split order reaches the same fixpoint).
    """
    dim = len(dirs[0])
    offsets = _CHILD2 if dim == 2 else _CHILD3
    keys.sort()
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
# Face assembly: count, then fill in place
# ----------------------------------------------------------------------
FaceArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _FaceCount:
    """Pass-1 sink: adds one to a cell's face count per face added."""

    def __init__(self, counts: np.ndarray) -> None:
        self._counts = counts

    def add(self, mask, b, area, nx, ny, fx, fy) -> None:
        self._counts += mask


class _FaceFill:
    """Pass-2 sink: writes each face at its cell's fill cursor, then
    advances the cursor."""

    def __init__(self, faces: FaceArrays, start: int, cursor: np.ndarray):
        self._faces = faces
        self._start = start
        self._cursor = cursor

    def add(self, mask, b, area, nx, ny, fx, fy) -> None:
        sel = np.flatnonzero(mask)
        if sel.size == 0:
            return
        cells, face_area, normal, center = self._faces
        pos = self._cursor[sel]
        cells[pos, 0] = self._start + sel
        cells[pos, 1] = _pick(b, sel)
        face_area[pos] = _pick(area, sel)
        normal[pos, 0] = nx
        normal[pos, 1] = ny
        center[pos, 0] = _pick(fx, sel)
        center[pos, 1] = _pick(fy, sel)
        self._cursor[sel] += 1


def _pick(v, sel: np.ndarray):
    """``v`` at the chunk lanes ``sel``; a scalar is broadcast."""
    return v[sel] if np.ndim(v) else v


def assemble_faces(n: int, chunk: int, chunk_faces) -> FaceArrays:
    """Build ``(face_cells, face_area, face_normal, face_center)`` for
    ``n`` cells, chunk by chunk, straight into their final arrays.

    ``chunk_faces(start, stop, sink)`` describes the faces of cells
    ``start:stop``: one ``sink.add(mask, b, area, nx, ny, fx, fy)``
    per face slot, in slot order, where ``mask`` selects the chunk's
    cells that own a face in that slot, ``b`` is the second cell (``-1``
    on the boundary), ``nx, ny`` are the slot's constant normal and the
    others are per-cell arrays or scalars.  It runs twice per chunk.
    Pass 1 only counts each cell's faces (one byte per cell), which
    sizes the four arrays exactly; pass 2 writes every face at its
    cell's fill cursor, so a cell's faces come out in slot order and
    the cells in index order, with no per-chunk parts, sort or final
    concatenate.  The peak is the output plus one chunk's temporaries.
    """
    counts = np.zeros(n, dtype=np.uint8)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        chunk_faces(start, stop, _FaceCount(counts[start:stop]))
    m = int(counts.sum(dtype=np.int64))
    faces = (
        np.empty((m, 2), dtype=np.int64),
        np.empty(m, dtype=np.float64),
        np.empty((m, 2), dtype=np.float64),
        np.empty((m, 2), dtype=np.float64),
    )
    base = 0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        ends = np.cumsum(counts[start:stop], dtype=np.int64)
        cursor = base + ends - counts[start:stop]
        base += int(ends[-1])
        chunk_faces(start, stop, _FaceFill(faces, start, cursor))
    return faces


def make_lookup(pk: np.ndarray):
    """Packed-key → cell-index lookup over the final cell ordering.

    ``lookup(q, where)`` returns ``(index, found)`` per query key; only
    the lanes selected by the boolean mask ``where`` are searched and
    every other lane reads ``(-1, False)``.
    """
    lorder = np.argsort(pk)
    pks = pk[lorder]

    def lookup(
        q: np.ndarray, where: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        idx = np.full(q.shape, -1, dtype=np.int64)
        found = np.zeros(q.shape, dtype=bool)
        sel = np.flatnonzero(where)
        if sel.size:
            qs = q[sel]
            pos = np.minimum(np.searchsorted(pks, qs), pks.size - 1)
            hit = pks[pos] == qs
            idx[sel] = np.where(hit, lorder[pos], -1)
            found[sel] = hit
        return idx, found

    return lookup
