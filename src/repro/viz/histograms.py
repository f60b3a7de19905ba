"""Textual bar charts for the domain-characteristics figures.

Figs. 7 and 10 of the paper are stacked bar charts: operating cost per
process broken down by temporal level (a), and cumulative computation
per process broken down by subiteration (b).  These render the same
matrices as fixed-width text.
"""

from __future__ import annotations

import numpy as np

__all__ = ["render_stacked_bars"]


def render_stacked_bars(
    matrix: np.ndarray,
    *,
    row_label: str = "proc",
    width: int = 60,
) -> str:
    """Render a ``(rows, classes)`` matrix as horizontal stacked bars.

    Every row is scaled to the global maximum row sum; segment ``c`` of
    a row is drawn with the digit ``c % 10``.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, ncls = matrix.shape
    total_max = matrix.sum(axis=1).max()
    if total_max <= 0:
        total_max = 1.0
    lines = []
    for r in range(rows):
        segs = []
        acc = 0.0
        drawn = 0
        for c in range(ncls):
            acc += matrix[r, c]
            upto = int(round(acc / total_max * width))
            segs.append(str(c % 10) * max(0, upto - drawn))
            drawn = max(drawn, upto)
        lines.append(f"{row_label}{r:<3d} |{''.join(segs):<{width}}|")
    return "\n".join(lines)

