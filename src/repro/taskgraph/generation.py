"""Task graph generation — the paper's Algorithm 1, vectorized.

For every subiteration, the active temporal levels are traversed in
descending order (*phases*); each phase generates, per domain, a task
for the **external** then the **internal** objects of its level, first
for faces then for cells — provided the object set is non-empty.

Note on fidelity: Algorithm 1's set-builder line reads
``t_lvl(x) ≤ τ``, but the surrounding text and Fig. 8 make clear each
phase processes the objects *of its level* (distinct red/yellow/blue
tasks per τ); we implement equality, which is also what makes MC_TL
produce finer-grained tasks (paper §VI).

Dependencies are derived from last-writer tables over *object groups*
(a group = all cells or faces sharing (domain, level, locality)):

* a **face task** reads the most recent values of its adjacent cell
  groups (flux stencil) and write-after-write orders it after the
  previous task of its own group;
* a **cell task** reads the most recent fluxes of every face group
  bounding its cells and its own previous update.

Because tasks are generated in execution order (subiterations
ascending, phases descending, faces before cells, external before
internal), the last-writer tables automatically resolve the subtle
cases — e.g. a face task of level τ reads its level-τ neighbour cells'
values from subiteration ``s − 2**τ``, not from the cell task that
follows it in the same phase.

Implementation
--------------
The seed implementation (kept verbatim as the differential oracle in
:mod:`repro.taskgraph.reference`) appended tasks one Python call at a
time — ``ndom × locality`` appends per sweep, with an inner loop over
neighbour groups per task.  This module produces the identical graph
with three batching layers:

* the non-empty (domain, level, locality) *emission blocks* of every
  temporal level — group ids, their per-group neighbour lists in
  ragged (CSR-gathered) form, and the constant task fields — are
  precomputed once;
* each sweep then emits its whole task block with NumPy primitives:
  task ids are an ``arange``, dependency sources are vectorized
  gathers from the last-writer tables through the block's neighbour
  arrays, and the table update is one fancy-index store (tasks within
  one sweep never depend on each other, so per-sweep batching is
  exact);
* for ``iterations > 1`` the generator exploits the chain's
  periodicity: it builds one iteration's *template* (recording which
  dependency reads crossed the iteration boundary) and replays it with
  task-id offsets — iteration ``i`` is the template shifted by
  ``i·n``, plus cross-iteration edges into the previous iteration's
  last writers — instead of regenerating every iteration.

The result is bit-identical task arrays and the same canonical edge
set as the reference (edges are emitted sorted by ``(successor,
predecessor)``; the reference emits them in per-task Python ``set``
order, so raw edge-array layouts differ while the DAGs are equal).
"""

from __future__ import annotations

import numpy as np

from ..mesh import dual
from ..mesh.structures import Mesh
from ..partitioning.decomposition import DomainDecomposition
from ..temporal.levels import face_levels
from ..temporal.scheme import active_levels, num_subiterations
from .dag import TaskDAG, _gather_rows
from .task import ObjectType, TaskArrays

__all__ = ["generate_task_graph", "classify_objects"]


def classify_objects(
    mesh: Mesh, tau: np.ndarray, decomp: DomainDecomposition
) -> dict:
    """Classify cells and faces into task object groups.

    Returns a dict with, per object kind, the (domain, level, locality)
    of every object, plus the face→cell and cell→face group relations
    needed for dependency generation.
    """
    tau = np.asarray(tau, dtype=np.int32)
    cdom = decomp.domain
    fc = mesh.face_cells
    m = len(fc)
    flevel = face_levels(mesh, tau)
    # Face locality: external iff its two cells live in different
    # domains.  Face owner: the domain of its finer adjacent cell (the
    # face is computed at that cell's frequency); ties go to cell a's
    # domain.  Cell locality: external iff adjacent to another domain.
    # Read in face windows, as ``_group_relations`` reads them, so no
    # face-length temporary is built.  A boundary face pairs its one
    # cell with itself, so it reads internal and owned by that cell.
    floc = np.empty(m, dtype=np.int8)
    fdom = np.empty(m, dtype=np.int32)
    cloc = np.zeros(mesh.num_cells, dtype=np.int8)
    chunk = dual.DEFAULT_CHUNK_FACES
    for start in range(0, m, chunk):
        a, b = fc[start : start + chunk].T
        b = np.where(b >= 0, b, a)
        da, db = cdom[a], cdom[b]
        ext = da != db
        floc[start : start + len(a)] = ext
        fdom[start : start + len(a)] = np.where(tau[b] < tau[a], db, da)
        cloc[a[ext]] = 1
        cloc[b[ext]] = 1

    return {
        "cell_domain": cdom.astype(np.int32),
        "cell_level": tau,
        "cell_locality": cloc,
        "face_domain": fdom,
        "face_level": flevel,
        "face_locality": floc,
    }


def _group_ids(
    dom: np.ndarray, lev: np.ndarray, loc: np.ndarray, ndom: int, nlev: int
) -> np.ndarray:
    """Dense group key (domain, level, locality) → scalar id."""
    return (dom.astype(np.int64) * nlev + lev) * 2 + loc


def _group_relations(
    mesh: Mesh, fgid: np.ndarray, cgid: np.ndarray, ngroups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unique face-group↔cell-group adjacency as two CSR relations.

    Returns ``(f2c_x, f2c_a, c2f_x, c2f_a)``: face group → adjacent
    cell groups and cell group → bounding face groups.  The faces are
    read in windows of :data:`~repro.mesh.dual.DEFAULT_CHUNK_FACES`,
    so no face-length pair array is ever built.
    """
    fc = mesh.face_cells
    m = len(fc)
    # Scalar-keyed unique: both group ids live in [0, ngroups), so a
    # pair packs into one int64 whose sorted order is the pairs'
    # lexicographic order — orders of magnitude cheaper than
    # ``np.unique(..., axis=0)``'s void-view row sort.  When the key
    # range is modest a presence bitmap beats ``np.unique`` outright.
    n = np.int64(ngroups)
    npairs = m + int(np.count_nonzero(fc[:, 1] >= 0))
    bitmap = ngroups * ngroups <= max(1 << 22, 4 * npairs)
    if bitmap:
        fwd = np.zeros(ngroups * ngroups, dtype=bool)
        rev = np.zeros(ngroups * ngroups, dtype=bool)
    else:
        fwd, rev = [], []
    chunk = dual.DEFAULT_CHUNK_FACES
    for start in range(0, m, chunk):
        cells = fc[start : start + chunk]
        inner = cells[:, 1] >= 0
        fg = fgid[start : start + chunk]
        fg = np.concatenate([fg, fg[inner]])
        cg = np.concatenate([cgid[cells[:, 0]], cgid[cells[inner, 1]]])
        for acc, keys in ((fwd, fg * n + cg), (rev, cg * n + fg)):
            if bitmap:
                acc[keys] = True
            else:
                acc.append(np.unique(keys))

    def uniq(acc) -> np.ndarray:
        if bitmap:
            return np.flatnonzero(acc)
        return np.unique(np.concatenate(acc)) if acc else np.empty(0, np.int64)

    # CSR: face group -> adjacent cell groups
    key = uniq(fwd)
    f2c_x = np.zeros(ngroups + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=ngroups), out=f2c_x[1:])
    f2c_a = key % n
    # CSR: cell group -> bounding face groups
    rkey = uniq(rev)
    c2f_x = np.zeros(ngroups + 1, dtype=np.int64)
    np.cumsum(np.bincount(rkey // n, minlength=ngroups), out=c2f_x[1:])
    c2f_a = rkey % n
    return f2c_x, f2c_a, c2f_x, c2f_a


class _EmissionBlock:
    """Per-(level, object-kind) emission template: the non-empty
    (domain, locality) groups in emission order, their neighbour-group
    reads in flattened ragged form, and the constant task fields."""

    __slots__ = (
        "gids", "read", "owner", "domain", "process", "locality",
        "num_objects", "cost",
    )

    def __init__(
        self,
        gids: np.ndarray,
        read: np.ndarray,
        owner: np.ndarray,
        dp: np.ndarray,
        counts: np.ndarray,
        nlev: int,
        unit_cost: float,
    ) -> None:
        self.gids = gids
        self.read = read
        self.owner = owner
        doms = gids // (2 * nlev)
        self.domain = doms.astype(np.int32)
        self.process = dp[doms].astype(np.int32)
        self.locality = (gids & 1).astype(np.int8)
        self.num_objects = counts[gids]
        self.cost = self.num_objects * unit_cost


def _emission_blocks(
    counts: np.ndarray,
    x: np.ndarray,
    adj: np.ndarray,
    dp: np.ndarray,
    ndom: int,
    nlev: int,
    unit_cost: float,
) -> list[_EmissionBlock]:
    """Build one :class:`_EmissionBlock` per temporal level.

    Emission order matches the reference sweep: domains ascending,
    EXTERNAL before INTERNAL, empty groups skipped.
    """
    d = np.arange(ndom, dtype=np.int64)
    loc_order = np.array([1, 0], dtype=np.int64)  # EXTERNAL, INTERNAL
    blocks = []
    for tph in range(nlev):
        cand = (((d * nlev + tph) * 2)[:, None] + loc_order).ravel()
        gids = cand[counts[cand] > 0]
        read, ptr = _gather_rows(x, adj, gids)
        owner = np.repeat(np.arange(len(gids), dtype=np.int64), np.diff(ptr))
        blocks.append(
            _EmissionBlock(gids, read, owner, dp, counts, nlev, unit_cost)
        )
    return blocks


# Sweep kinds of the iteration template.  Values index the last-writer
# table a sweep *writes*; the read pattern is derived per kind.
_FACE1, _FACE2, _UPDATE, _PREDICTOR, _CORRECTOR = range(5)

# Last-writer table rows (stacked so boundary reads can be replayed by
# a single fancy-index gather): 0 = last corrector/update cell task,
# 1 = stage-1 face, 2 = stage-2 face, 3 = predictor cell task.
_T_CELL, _T_FACE1, _T_FACE2, _T_PRED = range(4)


def _sweep_plan(scheme: str, nsub: int, tau_max: int) -> list[tuple[int, int, int]]:
    """The (s_local, phase τ, sweep kind) sequence of one iteration."""
    plan: list[tuple[int, int, int]] = []
    for s_local in range(nsub):
        for tph in active_levels(s_local, tau_max):
            if scheme == "euler":
                plan.append((s_local, tph, _FACE1))
                plan.append((s_local, tph, _UPDATE))
            else:
                plan.append((s_local, tph, _FACE1))
                plan.append((s_local, tph, _PREDICTOR))
                plan.append((s_local, tph, _FACE2))
                plan.append((s_local, tph, _CORRECTOR))
    return plan


def generate_task_graph(
    mesh: Mesh,
    tau: np.ndarray,
    decomp: DomainDecomposition,
    *,
    cell_unit_cost: float = 1.0,
    face_unit_cost: float = 1.0,
    scheme: str = "euler",
    iterations: int = 1,
) -> TaskDAG:
    """Generate the task graph of one or more iterations (Algorithm 1).

    Parameters
    ----------
    mesh, tau, decomp:
        The mesh, per-cell temporal levels, and domain decomposition.
    cell_unit_cost / face_unit_cost:
        Work units per cell update / per face flux.
    scheme:
        ``"euler"`` — one (faces, cells) sweep per phase;
        ``"heun"`` — the paper's second-order method: each phase emits
        stage-1 faces, predictor cells, stage-2 faces and corrector
        cells (four sweeps, doubling every task).  The dependency
        structure additionally orders stage-2 face tasks after the
        predictor writes they read and after the correctors that
        cleared their accumulators.

    iterations:
        Number of consecutive solver iterations to expand.  The
        last-writer tables carry across the boundary, so an iteration's
        first tasks depend on the previous iteration's last writers —
        no global barrier separates them, letting the simulator study
        *cross-iteration pipelining* (the paper simulates a single
        iteration and notes the pattern repeats).  Task
        ``subiteration`` indices are global (``iteration · 2**τ_max +
        s``).  Internally only the first iteration is generated; the
        rest replay it with shifted task ids (see the module
        docstring).

    Returns
    -------
    :class:`~repro.taskgraph.dag.TaskDAG` covering ``iterations`` full
    iterations (``iterations · 2**τ_max`` subiterations).  Edges are
    sorted by ``(successor, predecessor)``.
    """
    if scheme not in ("euler", "heun"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    tau = np.asarray(tau, dtype=np.int32)
    info = classify_objects(mesh, tau, decomp)
    ndom = decomp.num_domains
    tau_max = int(tau.max()) if len(tau) else 0
    nlev = tau_max + 1

    # --- group tables --------------------------------------------------
    cgid = _group_ids(
        info["cell_domain"], info["cell_level"], info["cell_locality"], ndom, nlev
    )
    fgid = _group_ids(
        info["face_domain"], info["face_level"], info["face_locality"], ndom, nlev
    )
    ngroups = ndom * nlev * 2
    cell_counts = np.bincount(cgid, minlength=ngroups).astype(np.int64)
    face_counts = np.bincount(fgid, minlength=ngroups).astype(np.int64)

    # --- group relations + per-level emission templates -----------------
    f2c_x, f2c_a, c2f_x, c2f_a = _group_relations(mesh, fgid, cgid, ngroups)
    dp = np.asarray(decomp.domain_process)
    fblocks = _emission_blocks(
        face_counts, f2c_x, f2c_a, dp, ndom, nlev, face_unit_cost
    )
    cblocks = _emission_blocks(
        cell_counts, c2f_x, c2f_a, dp, ndom, nlev, cell_unit_cost
    )

    # --- one-iteration template -----------------------------------------
    nsub = num_subiterations(tau_max)
    plan = _sweep_plan(scheme, nsub, tau_max)

    # Stacked last-writer tables (rows: _T_CELL/_T_FACE1/_T_FACE2/_T_PRED).
    last = np.full((4, ngroups), -1, dtype=np.int64)

    emitted: list[tuple[int, int, int, _EmissionBlock]] = []  # s, tph, kind, blk
    # Dependency reads: parallel chunks of (source tid, dest tid) plus,
    # for boundary replay, which table row and group each read came from.
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    gid_parts: list[np.ndarray] = []
    tab_parts: list[int] = []
    base = 0

    def gather(row: int, gids: np.ndarray, dst: np.ndarray) -> None:
        src_parts.append(last[row, gids])
        dst_parts.append(dst)
        gid_parts.append(gids)
        tab_parts.append(row)

    for s_local, tph, kind in plan:
        if kind in (_FACE1, _FACE2):
            blk = fblocks[tph]
            k = len(blk.gids)
            if k == 0:
                continue
            tids = np.arange(base, base + k, dtype=np.int64)
            row = _T_FACE1 if kind == _FACE1 else _T_FACE2
            gather(row, blk.gids, tids)  # write-after-write on own group
            if len(blk.read):
                rdst = tids[blk.owner]
                gather(_T_CELL, blk.read, rdst)  # flux stencil reads U
                if kind == _FACE2:
                    # Stage 2 reads U* and must follow the corrector
                    # that cleared acc2 (the _T_CELL gather above).
                    gather(_T_PRED, blk.read, rdst)
            last[row, blk.gids] = tids
        else:
            blk = cblocks[tph]
            k = len(blk.gids)
            if k == 0:
                continue
            tids = np.arange(base, base + k, dtype=np.int64)
            gather(_T_CELL, blk.gids, tids)  # own previous update
            if kind != _UPDATE:
                gather(_T_PRED, blk.gids, tids)
            if len(blk.read):
                rdst = tids[blk.owner]
                gather(_T_FACE1, blk.read, rdst)
                if kind != _UPDATE:
                    # Corrector reads stage-2 fluxes; predictor takes a
                    # WAR dependency on stage-2 faces still reading U*.
                    gather(_T_FACE2, blk.read, rdst)
            row = _T_PRED if kind == _PREDICTOR else _T_CELL
            last[row, blk.gids] = tids
        emitted.append((s_local, tph, kind, blk))
        base += k

    n = base  # tasks per iteration

    # --- assemble task arrays -------------------------------------------
    _FACE_KINDS = (_FACE1, _FACE2)
    if emitted:
        tmpl_sub = np.concatenate(
            [np.full(len(b.gids), s, dtype=np.int32) for s, _, _, b in emitted]
        )
        tmpl_tau = np.concatenate(
            [np.full(len(b.gids), t, dtype=np.int32) for _, t, _, b in emitted]
        )
        tmpl_type = np.concatenate(
            [
                np.full(
                    len(b.gids),
                    int(ObjectType.FACE if k in _FACE_KINDS else ObjectType.CELL),
                    dtype=np.int8,
                )
                for _, _, k, b in emitted
            ]
        )
        tmpl_stage = np.concatenate(
            [
                np.full(
                    len(b.gids),
                    2 if k in (_FACE2, _CORRECTOR) else 1,
                    dtype=np.int8,
                )
                for _, _, k, b in emitted
            ]
        )
        tmpl_loc = np.concatenate([b.locality for _, _, _, b in emitted])
        tmpl_dom = np.concatenate([b.domain for _, _, _, b in emitted])
        tmpl_proc = np.concatenate([b.process for _, _, _, b in emitted])
        tmpl_nobj = np.concatenate([b.num_objects for _, _, _, b in emitted])
        tmpl_cost = np.concatenate([b.cost for _, _, _, b in emitted])
    else:
        tmpl_sub = np.empty(0, dtype=np.int32)
        tmpl_tau = np.empty(0, dtype=np.int32)
        tmpl_type = np.empty(0, dtype=np.int8)
        tmpl_stage = np.empty(0, dtype=np.int8)
        tmpl_loc = np.empty(0, dtype=np.int8)
        tmpl_dom = np.empty(0, dtype=np.int32)
        tmpl_proc = np.empty(0, dtype=np.int32)
        tmpl_nobj = np.empty(0, dtype=np.int64)
        tmpl_cost = np.empty(0, dtype=np.float64)

    offs = np.arange(iterations, dtype=np.int64) * n
    if iterations == 1:
        sub = tmpl_sub
    else:
        sub_offs = (np.arange(iterations) * nsub).astype(np.int32)
        sub = (tmpl_sub[None, :] + sub_offs[:, None]).ravel()
    tasks = TaskArrays(
        subiteration=sub,
        phase_tau=np.tile(tmpl_tau, iterations),
        obj_type=np.tile(tmpl_type, iterations),
        locality=np.tile(tmpl_loc, iterations),
        domain=np.tile(tmpl_dom, iterations),
        process=np.tile(tmpl_proc, iterations),
        num_objects=np.tile(tmpl_nobj, iterations),
        cost=np.tile(tmpl_cost, iterations),
        stage=np.tile(tmpl_stage, iterations),
    )

    # --- assemble edges ---------------------------------------------------
    if src_parts:
        src_all = np.concatenate(src_parts)
        dst_all = np.concatenate(dst_parts)
    else:
        src_all = np.empty(0, dtype=np.int64)
        dst_all = np.empty(0, dtype=np.int64)
    seen = src_all >= 0
    tmpl_src = src_all[seen]
    tmpl_dst = dst_all[seen]

    if iterations == 1:
        src, dst = tmpl_src, tmpl_dst
    else:
        # Reads that saw no writer inside the template resolve, from the
        # second iteration on, to the previous iteration's final tables.
        miss = ~seen
        b_dst = dst_all[miss]
        b_gid = np.concatenate(gid_parts)[miss] if gid_parts else b_dst
        b_tab = (
            np.repeat(
                np.asarray(tab_parts, dtype=np.int64),
                [len(p) for p in gid_parts],
            )[miss]
            if gid_parts
            else b_dst
        )
        carry = last[b_tab, b_gid]
        valid = carry >= 0
        cb_src = carry[valid]
        cb_dst = b_dst[valid]
        src = np.concatenate(
            [
                (tmpl_src[None, :] + offs[:, None]).ravel(),
                (cb_src[None, :] + offs[:-1, None]).ravel(),
            ]
        )
        dst = np.concatenate(
            [
                (tmpl_dst[None, :] + offs[:, None]).ravel(),
                (cb_dst[None, :] + offs[1:, None]).ravel(),
            ]
        )

    if len(src):
        order = np.lexsort((src, dst))
        edges = np.stack([src[order], dst[order]], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return TaskDAG(tasks=tasks, edges=edges)
