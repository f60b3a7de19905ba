"""Invariants the tests check: a mesh is structurally consistent and
geometrically closed, a task graph is a DAG, a trace is a valid
schedule of its task graph, and the Heun scheme conserves its total."""

from __future__ import annotations

import numpy as np


def validate_mesh(mesh) -> None:
    """Raise ``ValueError`` on structural inconsistencies of ``mesh``."""
    n, m = mesh.num_cells, mesh.num_faces
    if mesh.cell_centers.shape != (n, 2):
        raise ValueError("cell_centers shape mismatch")
    if mesh.cell_depth.shape != (n,):
        raise ValueError("cell_depth shape mismatch")
    if np.any(mesh.cell_volumes <= 0):
        raise ValueError("non-positive cell volume")
    if mesh.face_cells.shape != (m, 2):
        raise ValueError("face_cells shape mismatch")
    if mesh.face_area.shape != (m,) or np.any(mesh.face_area <= 0):
        raise ValueError("invalid face areas")
    if mesh.face_normal.shape != (m, 2):
        raise ValueError("face_normal shape mismatch")
    norms = np.linalg.norm(mesh.face_normal, axis=1)
    if not np.allclose(norms, 1.0, atol=1e-9):
        raise ValueError("face normals must be unit vectors")
    if np.any(mesh.face_cells[:, 0] < 0) or np.any(
        mesh.face_cells[:, 0] >= n
    ):
        raise ValueError("face_cells[:,0] out of range")
    if np.any(mesh.face_cells[:, 1] >= n):
        raise ValueError("face_cells[:,1] out of range")
    a = mesh.face_cells[:, 0]
    b = mesh.face_cells[:, 1]
    if np.any(a == b):
        raise ValueError("degenerate face (same cell twice)")
    # Geometric closure: for each cell, sum of area-weighted
    # outward normals must vanish (divergence of a constant field).
    closure = np.zeros((n, 2))
    w = mesh.face_area[:, None] * mesh.face_normal
    np.add.at(closure, a, w)
    interior = mesh.interior_faces()
    np.add.at(closure, b[interior], -w[interior])
    scale = np.sqrt(mesh.cell_volumes)[:, None]
    if not np.allclose(closure / scale, 0.0, atol=1e-6):
        raise ValueError("cells are not geometrically closed")


def validate_dag(dag) -> None:
    """Raise ``ValueError`` on malformed edges or cycles of ``dag``."""
    if len(dag.edges):
        if dag.edges.min() < 0 or dag.edges.max() >= dag.num_tasks:
            raise ValueError("edge endpoint out of range")
        if np.any(dag.edges[:, 0] == dag.edges[:, 1]):
            raise ValueError("self-dependency")
    dag.topological_order()


def validate_schedule(trace, dag) -> None:
    """Raise ``ValueError`` unless ``trace`` is a valid schedule of
    ``dag``: dependencies respected, no worker overlap, tasks on their
    owning process."""
    if len(trace.start) != dag.num_tasks:
        raise ValueError("trace/task count mismatch")
    if np.any(trace.end < trace.start - 1e-12):
        raise ValueError("negative task duration")
    if np.any(trace.process != dag.tasks.process):
        raise ValueError("task executed on a foreign process")
    pred = dag.edges[:, 0]
    succ = dag.edges[:, 1]
    if np.any(trace.start[succ] < trace.end[pred] - 1e-9):
        raise ValueError("dependency violated")
    # No overlap on a (process, worker) pair.
    key = trace.process.astype(np.int64) * (
        int(trace.worker.max(initial=0)) + 1
    ) + trace.worker
    order = np.lexsort((trace.start, key))
    k = key[order]
    s = trace.start[order]
    e = trace.end[order]
    same = k[1:] == k[:-1]
    if np.any(s[1:][same] < e[:-1][same] - 1e-9):
        raise ValueError("worker executes two tasks at once")


def conserved_total_heun(state, mesh) -> np.ndarray:
    """``Σ_c U_c V_c + ½ Σ_c (acc_c + acc2_c)`` — the Heun scheme's
    exact invariant (each stage's deposits are eventually applied with
    weight ½); ``state.conserved_total`` is the forward-Euler one."""
    return (state.U * mesh.cell_volumes[:, None]).sum(axis=0) + 0.5 * (
        state.acc + state.acc2
    ).sum(axis=0)
