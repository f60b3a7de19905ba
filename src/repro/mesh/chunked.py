"""Chunked array passes behind the quadtree and octree mesh builders.

:func:`repro.mesh.quadtree.build_quadtree_mesh` and
:func:`repro.mesh.octree.build_octree_mesh` run refine / 2:1 balance /
face extraction as NumPy array passes over chunks of at most
:data:`DEFAULT_CHUNK_CELLS` cells, never materializing O(cells) Python
objects:

* **refine** — breadth-first frontier of ``(depth, i, j[, k])``
  arrays, split decisions evaluated vectorized per chunk (the split
  predicate depends only on the cell itself, so the leaf set does not
  depend on traversal order or chunk size);
* **balance** — leaves live in one sorted array of packed int64 keys;
  each round marks too-coarse neighbours via vectorized ancestor
  lookups (``searchsorted`` membership) and splits them all at once.
  2:1 closure is confluent, so any split order reaches the same
  fixpoint;
* **faces** — per chunk of cells, neighbour resolution uses the 2:1
  guarantee (containing leaf at depth ``d`` or ``d-1``, else children
  at exactly ``d+1``) and a per-cell slot encoding fixes each cell's
  face order.

The chunk size bounds transient memory only: the meshes are
bit-identical for any positive value (pinned by the golden mesh hashes
in ``tests/golden/chain_outputs.json``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_CELLS",
    "FaceChunk",
    "balance_grid",
    "make_lookup",
    "refine_grid",
    "spread2",
]

#: Number of cells processed per vectorized pass.
DEFAULT_CHUNK_CELLS = 1 << 17

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
def balance_grid(
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
    so any forced-split order reaches the same fixpoint).
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
class FaceChunk:
    """Collects one chunk's face entries and emits them in per-cell
    slot order via ``cell * nslots + slot`` sort keys."""

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


def make_lookup(pk: np.ndarray):
    """Packed-key → cell-index lookup over the final cell ordering."""
    lorder = np.argsort(pk)
    pks = pk[lorder]

    def lookup(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pos = np.minimum(np.searchsorted(pks, q), pks.size - 1)
        found = pks[pos] == q
        return np.where(found, lorder[pos], -1), found

    return lookup
