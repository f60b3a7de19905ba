"""Textual visualization: ASCII Gantt charts and stacked-bar
histograms (the paper's figures, in terminal form)."""

from .gantt import render_process_gantt
from .histograms import render_stacked_bars
from .levelmap import render_level_map

__all__ = [
    "render_process_gantt",
    "render_stacked_bars",
    "render_level_map",
]
