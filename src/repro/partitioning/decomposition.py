"""Domain decompositions and their mapping to MPI processes.

FLUSEPA partitions the mesh into *domains* and maps each domain to an
MPI process (Fig. 2 of the paper).  When more domains than processes
are requested (to refine task granularity), domains are distributed
evenly across processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DomainDecomposition"]


@dataclass
class DomainDecomposition:
    """A mesh partition plus its process mapping.

    Attributes
    ----------
    domain:
        ``(n_cells,)`` domain index per cell.
    num_domains:
        Number of domains.
    domain_process:
        ``(num_domains,)`` owning MPI process per domain.
    num_processes:
        Number of MPI processes.
    strategy:
        Human-readable name of the strategy that produced it
        (``"SC_OC"``, ``"MC_TL"``, …).
    """

    domain: np.ndarray
    num_domains: int
    domain_process: np.ndarray
    num_processes: int
    strategy: str = "?"

    def __post_init__(self) -> None:
        self.domain = np.ascontiguousarray(self.domain, dtype=np.int32)
        self.domain_process = np.ascontiguousarray(
            self.domain_process, dtype=np.int32
        )
        if len(self.domain_process) != self.num_domains:
            raise ValueError("domain_process length mismatch")
        if len(self.domain) and (
            self.domain.min() < 0 or self.domain.max() >= self.num_domains
        ):
            raise ValueError("domain index out of range")
        if len(self.domain_process) and (
            self.domain_process.min() < 0
            or self.domain_process.max() >= self.num_processes
        ):
            raise ValueError("process index out of range")

    @property
    def cell_process(self) -> np.ndarray:
        """``(n_cells,)`` owning process per cell."""
        return self.domain_process[self.domain]

    @classmethod
    def block_mapping(
        cls,
        domain: np.ndarray,
        num_domains: int,
        num_processes: int,
        strategy: str = "?",
    ) -> "DomainDecomposition":
        """Map domains to processes in contiguous blocks.

        Domain ``d`` goes to process ``d * P // D`` — with recursive
        bisection, consecutive domain ids tend to be spatially close,
        so block mapping keeps a process's domains adjacent.
        """
        if num_processes > num_domains:
            raise ValueError("need at least one domain per process")
        dp = (
            np.arange(num_domains, dtype=np.int64) * num_processes
        ) // num_domains
        return cls(
            domain=domain,
            num_domains=num_domains,
            domain_process=dp.astype(np.int32),
            num_processes=num_processes,
            strategy=strategy,
        )
