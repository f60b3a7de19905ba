"""Seed DAG analytics, one Python iteration per task / edge / interval.

These are the loops ``repro.taskgraph.dag`` and ``repro.flusim.trace``
ran before the level-synchronous rewrite, kept verbatim as the oracle:
the array sweeps must reproduce them exactly (same IEEE adds and maxes,
so ``array_equal``, not ``allclose``).
"""

from __future__ import annotations

import numpy as np


def in_degrees(dag) -> np.ndarray:
    deg = np.zeros(dag.num_tasks, dtype=np.int64)
    if len(dag.edges):
        np.add.at(deg, dag.edges[:, 1], 1)
    return deg


def topological_order(dag) -> np.ndarray:
    """A topological order (Kahn); raises on cycles."""
    n = dag.num_tasks
    indeg = in_degrees(dag)
    sx, sa = dag.successors_csr()
    out = np.empty(n, dtype=np.int64)
    head = 0
    tail = 0
    ready = np.flatnonzero(indeg == 0)
    out[: len(ready)] = ready
    tail = len(ready)
    while head < tail:
        v = out[head]
        head += 1
        for u in sa[sx[v] : sx[v + 1]]:
            indeg[u] -= 1
            if indeg[u] == 0:
                out[tail] = u
                tail += 1
    if tail != n:
        raise ValueError("task graph contains a cycle")
    return out


def critical_path(dag) -> tuple[float, np.ndarray]:
    """Critical-path length and per-task bottom levels."""
    order = topological_order(dag)
    sx, sa = dag.successors_csr()
    cost = dag.tasks.cost
    bl = cost.astype(np.float64).copy()
    for v in order[::-1]:
        s = sa[sx[v] : sx[v + 1]]
        if len(s):
            bl[v] = cost[v] + bl[s].max()
    return (float(bl.max()) if len(bl) else 0.0), bl


def predecessors_csr(dag) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency successor → predecessors."""
    order = np.argsort(dag.edges[:, 1], kind="stable")
    xadj = np.zeros(dag.num_tasks + 1, dtype=np.int64)
    np.cumsum(in_degrees(dag), out=xadj[1:])
    return xadj, dag.edges[order, 0]


def depths(dag) -> np.ndarray:
    """Longest edge-count distance of every task from a source."""
    order = topological_order(dag)
    px, pa = predecessors_csr(dag)
    depth = np.zeros(dag.num_tasks, dtype=np.int64)
    for v in order:
        p = pa[px[v] : px[v + 1]]
        if len(p):
            depth[v] = depth[p].max() + 1
    return depth


def width_profile(dag) -> np.ndarray:
    """Number of tasks per DAG depth level."""
    depth = depths(dag)
    return np.bincount(depth) if len(depth) else np.zeros(0, dtype=np.int64)


def process_active_intervals(trace, p: int) -> np.ndarray:
    """Merged ``(k, 2)`` intervals during which process ``p`` is busy."""
    sel = np.flatnonzero(trace.process == p)
    if len(sel) == 0:
        return np.empty((0, 2))
    ivals = np.stack([trace.start[sel], trace.end[sel]], axis=1)
    ivals = ivals[np.argsort(ivals[:, 0], kind="stable")]
    merged = [list(ivals[0])]
    for s, e in ivals[1:]:
        if s <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return np.array(merged)


def total_process_idle_fraction(trace) -> float:
    """Mean idle fraction of composite processes."""
    if trace.makespan <= 0:
        return 0.0
    idle = []
    for p in range(trace.num_processes):
        ivals = process_active_intervals(trace, p)
        active = float((ivals[:, 1] - ivals[:, 0]).sum()) if len(ivals) else 0.0
        idle.append(trace.makespan - active)
    return float(np.array(idle).mean() / trace.makespan)
