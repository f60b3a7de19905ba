"""Task DAG container and graph algorithms.

Holds the task table plus the dependency structure in CSR form (both
directions), and provides the DAG analytics the experiments need:
topological order, critical path, width profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .task import TaskArrays

__all__ = ["TaskDAG", "canonical_edges"]


def canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Canonical form of an edge array: unique ``(pred, succ)`` rows in
    lexicographic order.  Two generators that emit the same dependency
    *set* in different orders produce equal canonical arrays — the
    comparison contract between the vectorized generator and the seed
    oracle in :mod:`repro.taskgraph.reference`."""
    edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) == 0:
        return edges
    return np.unique(edges, axis=0)


def _csr_from_pairs(
    n: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(src, kind="stable")
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
    return xadj, dst[order]


def _gather_rows(
    xadj: np.ndarray, adj: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenation of the CSR rows ``rows`` and, per row, the offset
    at which it starts in that concatenation (``len(rows) + 1``
    entries)."""
    starts = xadj[rows]
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(xadj[rows + 1] - starts, out=ptr[1:])
    idx = np.repeat(starts - ptr[:-1], np.diff(ptr)) + np.arange(ptr[-1])
    return adj[idx], ptr


@dataclass
class TaskDAG:
    """A task graph: tasks plus dependency edges.

    ``edges`` is a ``(E, 2)`` array of ``(predecessor, successor)``
    pairs.  Everything derived from them — successor/predecessor CSR
    adjacency, the level order, the bottom levels — is built lazily,
    once, and kept on the instance (never compared, packed or hashed),
    so ``tasks`` and ``edges`` must not change after the first query.
    """

    tasks: TaskArrays
    edges: np.ndarray
    _succ: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _levels: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    _bottom: tuple[float, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.edges = np.ascontiguousarray(self.edges, dtype=np.int64).reshape(
            -1, 2
        )

    @property
    def num_tasks(self) -> int:
        """Number of tasks."""
        return self.tasks.num_tasks

    @property
    def num_edges(self) -> int:
        """Number of dependency edges."""
        return len(self.edges)

    # ------------------------------------------------------------------
    def successors_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency predecessor → successors."""
        if self._succ is None:
            self._succ = _csr_from_pairs(
                self.num_tasks, self.edges[:, 0], self.edges[:, 1]
            )
        return self._succ

    def in_degrees(self) -> np.ndarray:
        """Number of predecessors per task (a fresh array)."""
        return np.bincount(self.edges[:, 1], minlength=self.num_tasks)

    # ------------------------------------------------------------------
    def _level_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Level-synchronous Kahn pass, one Python iteration per depth
        level: the topological order grouped by depth (a task joins the
        frontier when its last predecessor leaves it) and the offsets
        of the levels in it.  Read-only, computed once per DAG."""
        if self._levels is None:
            indeg = self.in_degrees()
            sx, sa = self.successors_csr()
            order = np.empty(self.num_tasks, dtype=np.int64)
            ptr = [0]
            frontier = np.flatnonzero(indeg == 0)
            while len(frontier):
                order[ptr[-1] : ptr[-1] + len(frontier)] = frontier
                ptr.append(ptr[-1] + len(frontier))
                succ, _ = _gather_rows(sx, sa, frontier)
                touched, hits = np.unique(succ, return_counts=True)
                indeg[touched] -= hits
                frontier = touched[indeg[touched] == 0]
            if ptr[-1] != self.num_tasks:
                raise ValueError("task graph contains a cycle")
            ptr = np.array(ptr, dtype=np.int64)
            order.flags.writeable = ptr.flags.writeable = False
            self._levels = order, ptr
        return self._levels

    def topological_order(self) -> np.ndarray:
        """A topological order, grouped by non-decreasing depth
        (read-only); raises on cycles."""
        return self._level_order()[0]

    def critical_path(self) -> tuple[float, np.ndarray]:
        """Critical-path length and per-task *bottom levels*
        (read-only, computed once per DAG).

        The bottom level of a task is the longest cost-weighted path
        from the task (inclusive) to any sink — the classic HEFT
        upward-rank priority.  The critical-path length is the maximum
        bottom level, a lower bound on any schedule's makespan.
        """
        if self._bottom is None:
            order, ptr = self._level_order()
            sx, sa = self.successors_csr()
            cost = self.tasks.cost
            bl = cost.astype(np.float64)
            # Deepest level first (the very deepest has no successors):
            # a task's successors all sit in deeper, finished levels.
            for lvl in range(len(ptr) - 3, -1, -1):
                rows = order[ptr[lvl] : ptr[lvl + 1]]
                succ, row_ptr = _gather_rows(sx, sa, rows)
                inner = row_ptr[1:] > row_ptr[:-1]
                v = rows[inner]
                bl[v] = cost[v] + np.maximum.reduceat(
                    bl[succ], row_ptr[:-1][inner]
                )
            bl.flags.writeable = False
            self._bottom = (float(bl.max()) if len(bl) else 0.0), bl
        return self._bottom

    def total_work(self) -> float:
        """Sum of all task costs (invariant across partitionings —
        'the total amount of work is independent of partitioning
        strategy', paper §VI)."""
        return float(self.tasks.cost.sum())
