"""Invariants the tests check: a trace is a valid schedule of its task
graph, and the Heun scheme conserves its total."""

from __future__ import annotations

import numpy as np


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
