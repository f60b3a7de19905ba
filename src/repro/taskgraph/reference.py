"""Seed (pre-vectorization) task-graph generation, kept as an oracle.

The vectorized :func:`repro.taskgraph.generation.generate_task_graph`
replaced this module's nested Python loops (per-domain appends inside
every phase of every subiteration).  The original generation loop is
kept here verbatim as a **differential oracle**: tests and the fuzz
harness assert the fast path produces *bit-identical* task arrays and
the same canonical edge set on the same inputs (the proven pattern
from :mod:`repro.graph.reference`).

This function is *not* used by the library at runtime.  The shared
object classification and group-relation setup (already vectorized in
the seed) is imported from :mod:`repro.taskgraph.generation`; only the
generation loop lives here.
"""

from __future__ import annotations

import numpy as np

from ..mesh.structures import Mesh
from ..partitioning.decomposition import DomainDecomposition
from ..temporal.scheme import active_levels, num_subiterations
from .dag import TaskDAG
from .generation import _group_ids, _group_relations, classify_objects
from .task import Locality, ObjectType, TaskArrays

__all__ = ["generate_task_graph_ref"]


def generate_task_graph_ref(
    mesh: Mesh,
    tau: np.ndarray,
    decomp: DomainDecomposition,
    *,
    scheme: str = "euler",
    iterations: int = 1,
) -> TaskDAG:
    """Seed implementation of Algorithm 1 at unit cell and face costs
    (see :func:`repro.taskgraph.generation.generate_task_graph` for the
    parameter documentation)."""
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

    # --- group relations ------------------------------------------------
    f2c_x, f2c_a, c2f_x, c2f_a = _group_relations(
        mesh, fgid, cgid, ngroups
    )

    # --- generation loop --------------------------------------------------
    nsub = num_subiterations(tau_max)
    dp = decomp.domain_process

    t_sub: list[int] = []
    t_tau: list[int] = []
    t_type: list[int] = []
    t_loc: list[int] = []
    t_dom: list[int] = []
    t_proc: list[int] = []
    t_nobj: list[int] = []
    t_cost: list[float] = []
    t_stage: list[int] = []
    e_src: list[int] = []
    e_dst: list[int] = []

    # Last-writer tables.  Euler uses (last_cell, last_face1); Heun
    # additionally tracks stage-2 faces and predictor cell writes.
    last_cell = np.full(ngroups, -1, dtype=np.int64)  # corrector / update
    last_face1 = np.full(ngroups, -1, dtype=np.int64)
    last_face2 = np.full(ngroups, -1, dtype=np.int64)
    last_pred = np.full(ngroups, -1, dtype=np.int64)

    def add_task(s, tph, typ, loc, d, nobj, cost, stage) -> int:
        tid = len(t_cost)
        t_sub.append(s)
        t_tau.append(tph)
        t_type.append(int(typ))
        t_loc.append(int(loc))
        t_dom.append(d)
        t_proc.append(int(dp[d]))
        t_nobj.append(int(nobj))
        t_cost.append(float(cost))
        t_stage.append(stage)
        return tid

    def add_deps(tid: int, preds: set[int]) -> None:
        for p in preds:
            if p >= 0 and p != tid:
                e_src.append(p)
                e_dst.append(tid)

    def face_sweep(s: int, tph: int, stage: int) -> None:
        for d in range(ndom):
            base = (d * nlev + tph) * 2
            for loc in (Locality.EXTERNAL, Locality.INTERNAL):
                gid = base + int(loc)
                nobj = face_counts[gid]
                if nobj == 0:
                    continue
                tid = add_task(
                    s,
                    tph,
                    ObjectType.FACE,
                    loc,
                    d,
                    nobj,
                    float(nobj),
                    stage,
                )
                table = last_face1 if stage == 1 else last_face2
                preds = {int(table[gid])}
                for cg in f2c_a[f2c_x[gid] : f2c_x[gid + 1]]:
                    # Stage 1 reads U (last corrector); stage 2 reads
                    # U* (last predictor) and must also follow the
                    # corrector that cleared acc2 (anti-dependency).
                    preds.add(int(last_cell[cg]))
                    if stage == 2:
                        preds.add(int(last_pred[cg]))
                add_deps(tid, preds)
                table[gid] = tid

    def cell_sweep(s: int, tph: int, kind: str) -> None:
        """kind ∈ {'update', 'predictor', 'corrector'}."""
        stage = 1 if kind != "corrector" else 2
        for d in range(ndom):
            base = (d * nlev + tph) * 2
            for loc in (Locality.EXTERNAL, Locality.INTERNAL):
                gid = base + int(loc)
                nobj = cell_counts[gid]
                if nobj == 0:
                    continue
                tid = add_task(
                    s,
                    tph,
                    ObjectType.CELL,
                    loc,
                    d,
                    nobj,
                    float(nobj),
                    stage,
                )
                preds = {int(last_cell[gid])}
                if kind != "update":
                    preds.add(int(last_pred[gid]))
                for fg in c2f_a[c2f_x[gid] : c2f_x[gid + 1]]:
                    preds.add(int(last_face1[fg]))
                    if kind == "corrector":
                        preds.add(int(last_face2[fg]))
                    elif kind == "predictor":
                        # WAR: the new predictor overwrites U*, which
                        # earlier stage-2 face tasks may still read.
                        preds.add(int(last_face2[fg]))
                add_deps(tid, preds)
                if kind == "predictor":
                    last_pred[gid] = tid
                else:
                    last_cell[gid] = tid

    for it in range(iterations):
        for s_local in range(nsub):
            s = it * nsub + s_local
            for tph in active_levels(s_local, tau_max):
                if scheme == "euler":
                    face_sweep(s, tph, 1)
                    cell_sweep(s, tph, "update")
                else:
                    face_sweep(s, tph, 1)
                    cell_sweep(s, tph, "predictor")
                    face_sweep(s, tph, 2)
                    cell_sweep(s, tph, "corrector")

    tasks = TaskArrays(
        subiteration=np.array(t_sub, dtype=np.int32),
        phase_tau=np.array(t_tau, dtype=np.int32),
        obj_type=np.array(t_type, dtype=np.int8),
        locality=np.array(t_loc, dtype=np.int8),
        domain=np.array(t_dom, dtype=np.int32),
        process=np.array(t_proc, dtype=np.int32),
        num_objects=np.array(t_nobj, dtype=np.int64),
        cost=np.array(t_cost, dtype=np.float64),
        stage=np.array(t_stage, dtype=np.int8),
    )
    edges = (
        np.stack(
            [
                np.array(e_src, dtype=np.int64),
                np.array(e_dst, dtype=np.int64),
            ],
            axis=1,
        )
        if e_src
        else np.empty((0, 2), dtype=np.int64)
    )
    return TaskDAG(tasks=tasks, edges=edges)
