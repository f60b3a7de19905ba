"""Execution traces and their analysis.

A trace records, per task: process, worker, start and end time — the
information behind every Gantt chart in the paper.  Analysis helpers
compute busy/idle profiles at worker, process ("composite resource",
Fig. 6) and subiteration granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..taskgraph.dag import TaskDAG

__all__ = ["Trace", "trace_differences"]


def trace_differences(got: "Trace", want: "Trace") -> list[str]:
    """Compare two traces under the fast-vs-reference contract.

    Every per-task array must be **bit-identical** (same dtype, same
    values — no tolerance: the optimized engine performs the same
    IEEE operations as the oracle, so exact equality is the spec).
    Returns human-readable differences; empty means equal.
    """
    out: list[str] = []
    if len(got.start) != len(want.start):
        out.append(f"task count {len(got.start)} != {len(want.start)}")
        return out
    if got.num_processes != want.num_processes:
        out.append(
            f"num_processes {got.num_processes} != {want.num_processes}"
        )
    if got.cores_per_process != want.cores_per_process:
        out.append(
            f"cores_per_process {got.cores_per_process} "
            f"!= {want.cores_per_process}"
        )
    for f in ("process", "worker", "start", "end"):
        a = getattr(got, f)
        b = getattr(want, f)
        if a.dtype != b.dtype:
            out.append(f"{f} dtype {a.dtype} != {b.dtype}")
        elif not np.array_equal(a, b):
            bad = int(np.flatnonzero(a != b)[0])
            out.append(
                f"{f} differs first at task {bad}: {a[bad]!r} != {b[bad]!r}"
            )
    return out


@dataclass
class Trace:
    """The result of simulating (or replaying) a task graph.

    Parallel arrays indexed by task id.
    """

    process: np.ndarray  # (T,) int32
    worker: np.ndarray  # (T,) int32 — worker index within the process
    start: np.ndarray  # (T,) float64
    end: np.ndarray  # (T,) float64
    num_processes: int
    cores_per_process: int

    @property
    def makespan(self) -> float:
        """Completion time of the last task."""
        return float(self.end.max()) if len(self.end) else 0.0

    def busy_time_per_process(self) -> np.ndarray:
        """Total task time executed by each process."""
        out = np.zeros(self.num_processes, dtype=np.float64)
        np.add.at(out, self.process, self.end - self.start)
        return out

    def efficiency(self) -> float:
        """Parallel efficiency: busy core-time over available core-time."""
        span = self.makespan
        if span <= 0:
            return 1.0
        total = float((self.end - self.start).sum())
        return total / (span * self.num_processes * self.cores_per_process)

    def process_active_intervals(self, p: int) -> np.ndarray:
        """Merged ``(k, 2)`` intervals during which process ``p`` has at
        least one task running (the paper's composite resource view)."""
        sel = np.flatnonzero(self.process == p)
        if len(sel) == 0:
            return np.empty((0, 2))
        sel = sel[np.argsort(self.start[sel], kind="stable")]
        s = self.start[sel]
        # Latest end so far; inside a merged interval that is the
        # interval's own end, every earlier one having closed before.
        reach = np.maximum.accumulate(self.end[sel])
        first = np.flatnonzero(np.r_[True, s[1:] > reach[:-1] + 1e-12])
        last = np.r_[first[1:], len(s)] - 1
        return np.stack([s[first], reach[last]], axis=1)

    def process_idle_time(self, p: int) -> float:
        """Idle time of the composite process ``p`` inside the span
        [0, makespan]."""
        ivals = self.process_active_intervals(p)
        active = float((ivals[:, 1] - ivals[:, 0]).sum()) if len(ivals) else 0.0
        return self.makespan - active

    def total_process_idle_fraction(self) -> float:
        """Mean idle fraction of composite processes (Fig. 6's
        quantity: idleness that persists even with unbounded cores)."""
        if self.makespan <= 0:
            return 0.0
        idle = np.array(
            [self.process_idle_time(p) for p in range(self.num_processes)]
        )
        return float(idle.mean() / self.makespan)

    def work_by_process_subiteration(self, dag: TaskDAG) -> np.ndarray:
        """Executed work per (process, subiteration) — trace-level
        counterpart of Fig. 7b / 10b."""
        sub = dag.tasks.subiteration
        nsub = int(sub.max()) + 1 if len(sub) else 1
        out = np.zeros((self.num_processes, nsub), dtype=np.float64)
        np.add.at(out, (self.process, sub), self.end - self.start)
        return out
