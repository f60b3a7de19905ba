"""ASCII Gantt rendering of execution traces.

The paper's evidence is largely visual (Figs. 5, 6, 9, 12, 13 are
Gantt charts color-coded by subiteration).  This module renders the
same charts as text: one row per process (composite view), time
binned into columns, each cell showing the subiteration
digit of the dominant task (``.`` = idle).
"""

from __future__ import annotations

import numpy as np

from ..flusim.trace import Trace
from ..taskgraph.dag import TaskDAG

__all__ = ["render_process_gantt"]

_IDLE = "."


def _bin_trace(
    trace: Trace,
    dag: TaskDAG,
    row_of_task: np.ndarray,
    num_rows: int,
    width: int,
) -> list[str]:
    span = trace.makespan
    if span <= 0:
        return [_IDLE * width] * num_rows
    # For each row and column pick the subiteration with the most
    # overlap time.
    nsub = int(dag.tasks.subiteration.max()) + 1
    overlap = np.zeros((num_rows, width, nsub), dtype=np.float64)
    col_w = span / width
    for t in range(dag.num_tasks):
        r = int(row_of_task[t])
        s, e = trace.start[t], trace.end[t]
        sub = int(dag.tasks.subiteration[t])
        c0 = int(s / col_w)
        c1 = min(int(np.ceil(e / col_w)), width)
        for c in range(c0, c1):
            lo = max(s, c * col_w)
            hi = min(e, (c + 1) * col_w)
            if hi > lo:
                overlap[r, c, sub] += hi - lo
    rows = []
    for r in range(num_rows):
        chars = []
        for c in range(width):
            tot = overlap[r, c].sum()
            if tot <= 0:
                chars.append(_IDLE)
            else:
                sub = int(np.argmax(overlap[r, c]))
                chars.append(str(sub % 10) if sub < 10 else "#")
        rows.append("".join(chars))
    return rows


def render_process_gantt(trace: Trace, dag: TaskDAG, *, width: int = 100) -> str:
    """Composite-process Gantt chart (paper Fig. 6 style): a row is
    idle only when *no* core of the process is busy."""
    rows = _bin_trace(
        trace, dag, trace.process.astype(np.int64), trace.num_processes, width
    )
    return "\n".join(
        f"proc{p:<4d} |{row}|" for p, row in enumerate(rows)
    )
