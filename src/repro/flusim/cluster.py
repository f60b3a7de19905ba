"""Virtual cluster configuration for FLUSIM.

"When defining the cluster configuration, we specify the number of
nodes and the number of workers per node that we intend to emulate"
(paper §III-A).  In the paper's experiments one MPI process runs per
node, so we speak of *processes* with *cores* each; a core count of
``None`` emulates the unbounded-cores thought experiment of §III-C /
Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClusterConfig", "UNBOUNDED"]

#: Sentinel core count for the "unlimited cores per node" experiment.
UNBOUNDED: int = 1 << 30


@dataclass(frozen=True)
class ClusterConfig:
    """A virtual cluster: ``num_processes`` MPI processes with
    ``cores_per_process`` workers each.

    Attributes
    ----------
    num_processes:
        Number of MPI processes (the paper maps one per node).
    cores_per_process:
        Workers per process; ``None`` means unbounded (§III-C).
    """

    num_processes: int
    cores_per_process: int | None = 1

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("need at least one process")
        if self.cores_per_process is not None and self.cores_per_process < 1:
            raise ValueError("need at least one core per process")

    @property
    def cores(self) -> int:
        """Effective cores per process (large sentinel if unbounded)."""
        return (
            UNBOUNDED
            if self.cores_per_process is None
            else self.cores_per_process
        )
