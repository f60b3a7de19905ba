"""Optional communication-cost model for FLUSIM.

The paper's FLUSIM deliberately ignores communication ("No
communication or runtime overheads are considered"), and expects the
volume MC_TL adds to be overlapped by the task-based runtime.  This
extension lets that assumption be *tested*: a classic α/β model delays
a task's readiness when a dependency crosses a process boundary:

    delay = α + size / β

with ``size`` the predecessor task's object count (the halo data it
produced).  Same-process dependencies are free.  Sweeping
α/β quantifies how much link cost MC_TL's extra communication volume
(Fig. 11b) can absorb before its scheduling gain erodes — the
motivation behind the paper's §VII dual-phase perspective.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CommModel"]


@dataclass(frozen=True)
class CommModel:
    """α/β communication cost for cross-process dependency edges.

    Attributes
    ----------
    latency:
        Fixed per-message cost α (same unit as task costs).
    bandwidth:
        Objects transferred per time unit β; ``inf`` disables the
        volume term.
    """

    latency: float = 0.0
    bandwidth: float = float("inf")

    def delay(self, num_objects: int) -> float:
        """Transfer delay for a message carrying ``num_objects``
        objects."""
        if self.bandwidth == float("inf"):
            return self.latency
        return self.latency + num_objects / self.bandwidth

    @property
    def is_free(self) -> bool:
        """True when the model adds no cost at all."""
        return self.latency == 0.0 and self.bandwidth == float("inf")
