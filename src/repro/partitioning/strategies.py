"""Mesh-partitioning strategies.

The two protagonists of the paper:

* **SC_OC** (single-constraint, operating cost) — the classical
  strategy: each cell is weighted by its operating cost
  ``2**(τ_max − τ)`` and the partitioner balances the *total* cost per
  domain.  Perfectly balanced per iteration, but the cells of a domain
  tend to share one temporal level, so whole processes idle during most
  subiterations (paper §IV, Fig. 7).

* **MC_TL** (multi-constraint, temporal levels) — the contribution:
  each cell carries a binary indicator vector over temporal levels and
  the partitioner balances *every level class simultaneously*, which
  balances every subiteration at once (paper §IV-A/V, Fig. 10).

Also provided:

* **dual-phase** MC_TL → SC_OC (paper §VII perspective): a first MC_TL
  pass creates one domain per process, then an SC_OC pass splits each
  process's domain for task granularity with minimal communication.
* **RCB** and **SFC** geometric baselines (related-work comparators in
  the spirit of Zoltan and space-filling-curve methods).
"""

from __future__ import annotations

import numpy as np

from ..graph.contracts import weighted_contiguous_cuts
from ..graph.partition import partition_graph
from ..mesh.dual import mesh_to_dual_graph
from ..mesh.structures import Mesh
from ..temporal.levels import operating_costs
from .decomposition import DomainDecomposition


def _check_geometric_inputs(mesh: Mesh, num_domains: int) -> None:
    """Shared degenerate-input gate of the geometric strategies (the
    graph strategies get the same checks from
    :func:`repro.graph.contracts.validate_partition_inputs`)."""
    if num_domains < 1:
        raise ValueError("num_domains must be >= 1")
    if num_domains > mesh.num_cells:
        raise ValueError(
            f"cannot create {num_domains} non-empty parts from "
            f"{mesh.num_cells} vertices"
        )

__all__ = [
    "sc_oc_partition",
    "mc_tl_partition",
    "dual_phase_partition",
    "rcb_partition",
    "sfc_partition",
    "make_decomposition",
    "STRATEGIES",
]


def _level_indicator_matrix(tau: np.ndarray) -> np.ndarray:
    """Binary (n, L) matrix: column τ is 1 exactly for cells of level
    τ — the MC_TL constraint vectors of paper §V."""
    tau = np.asarray(tau, dtype=np.int64)
    nlev = int(tau.max()) + 1
    out = np.zeros((len(tau), nlev), dtype=np.float64)
    out[np.arange(len(tau)), tau] = 1.0
    return out


def sc_oc_partition(
    mesh: Mesh,
    tau: np.ndarray,
    num_domains: int,
    *,
    seed: int = 0,
    imbalance_tol: float = 1.05,
) -> np.ndarray:
    """Single-Constraint Operating-Cost partitioning (the baseline).

    Returns the ``(n_cells,)`` domain assignment.
    """
    vwgt = operating_costs(tau)
    g = mesh_to_dual_graph(mesh, vwgt=vwgt)
    return partition_graph(
        g,
        num_domains,
        seed=seed,
        imbalance_tol=imbalance_tol,
        coords=mesh.cell_centers,
    ).part


def mc_tl_partition(
    mesh: Mesh,
    tau: np.ndarray,
    num_domains: int,
    *,
    seed: int = 0,
    imbalance_tol: float = 1.05,
) -> np.ndarray:
    """Multi-Constraint Temporal-Level partitioning (the paper's
    contribution).

    Every temporal-level class is balanced across domains
    simultaneously, so every subiteration's workload is evenly spread.
    Returns the ``(n_cells,)`` domain assignment.
    """
    vwgt = _level_indicator_matrix(tau)
    g = mesh_to_dual_graph(mesh, vwgt=vwgt)
    return partition_graph(
        g,
        num_domains,
        seed=seed,
        imbalance_tol=imbalance_tol,
        coords=mesh.cell_centers,
    ).part


def dual_phase_partition(
    mesh: Mesh,
    tau: np.ndarray,
    num_processes: int,
    domains_per_process: int,
    *,
    seed: int = 0,
    imbalance_tol: float = 1.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Dual-phase partitioning (paper §VII perspective).

    Phase 1 balances temporal levels across processes (MC_TL, one
    super-domain per process); phase 2 splits each super-domain by
    operating cost (SC_OC) to recover task granularity while keeping
    the extra communication *inside* the process.

    Returns ``(domain, domain_process)``: the per-cell domain index in
    ``[0, num_processes * domains_per_process)`` and the owning process
    of each domain.
    """
    proc_of_cell = mc_tl_partition(
        mesh,
        tau,
        num_processes,
        seed=seed,
        imbalance_tol=imbalance_tol,
    )
    cost = operating_costs(tau)
    g = mesh_to_dual_graph(mesh, vwgt=cost)
    domain = np.zeros(mesh.num_cells, dtype=np.int32)
    domain_process = np.zeros(
        num_processes * domains_per_process, dtype=np.int32
    )
    for p in range(num_processes):
        cells = np.flatnonzero(proc_of_cell == p)
        base = p * domains_per_process
        domain_process[base : base + domains_per_process] = p
        if domains_per_process == 1 or len(cells) <= domains_per_process:
            domain[cells] = base
            continue
        sub, mapping = g.subgraph(cells)
        labels = partition_graph(
            sub,
            domains_per_process,
            seed=seed + 1 + p,
            imbalance_tol=imbalance_tol,
            coords=mesh.cell_centers[mapping],
        ).part
        domain[mapping] = base + labels
    return domain, domain_process


def rcb_partition(
    mesh: Mesh,
    tau: np.ndarray,
    num_domains: int,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Recursive coordinate bisection weighted by operating cost.

    A purely geometric comparator (Zoltan-style): recursively split
    along the longest axis at the cost-weighted median.  Ignores mesh
    connectivity entirely (paper §VIII).
    """
    _check_geometric_inputs(mesh, num_domains)
    cost = operating_costs(tau)
    n = mesh.num_cells
    domain = np.zeros(n, dtype=np.int32)
    stack = [(np.arange(n, dtype=np.int64), 0, num_domains)]
    while stack:
        cells, first, k = stack.pop()
        if k <= 1:
            domain[cells] = first
            continue
        k0 = (k + 1) // 2
        pts = mesh.cell_centers[cells]
        spans = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spans))
        order = np.argsort(pts[:, axis], kind="stable")
        csum = np.cumsum(cost[cells][order])
        total = csum[-1]
        split = int(np.searchsorted(csum, total * k0 / k)) + 1
        # Leave each side at least as many cells as it has parts, so
        # the recursion can never reach an empty cell set (skewed cost
        # distributions used to crash here).
        split = min(max(split, k0), len(cells) - (k - k0))
        stack.append((cells[order[:split]], first, k0))
        stack.append((cells[order[split:]], first + k0, k - k0))
    return domain


def sfc_partition(
    mesh: Mesh,
    tau: np.ndarray,
    num_domains: int,
    *,
    seed: int = 0,
) -> np.ndarray:
    """Space-filling-curve partitioning weighted by operating cost.

    Cells are sorted along the Hilbert curve and cut into
    ``num_domains`` consecutive chunks of equal operating cost — the
    classical CFD load-balancing method
    referenced in the paper's conclusion ([1], Aftosmis et al.).
    """
    from .sfc import sfc_order

    _check_geometric_inputs(mesh, num_domains)
    cost = operating_costs(tau)
    order = sfc_order(mesh.cell_centers)
    # weighted_contiguous_cuts guarantees every chunk is non-empty even
    # on heavy-tailed costs, where a plain quantile searchsorted can
    # collapse a chunk to nothing.
    domain = np.zeros(mesh.num_cells, dtype=np.int32)
    domain[order] = weighted_contiguous_cuts(cost[order], num_domains)
    return domain


#: Strategy-name → partition function (``(mesh, tau, ndomains, seed)``).
STRATEGIES = {
    "SC_OC": sc_oc_partition,
    "MC_TL": mc_tl_partition,
    "RCB": rcb_partition,
    "SFC": sfc_partition,
}


def make_decomposition(
    mesh: Mesh,
    tau: np.ndarray,
    num_domains: int,
    num_processes: int,
    *,
    strategy: str = "SC_OC",
    seed: int = 0,
    imbalance_tol: float = 1.05,
) -> DomainDecomposition:
    """Partition a mesh and map the domains to processes.

    ``strategy`` is one of :data:`STRATEGIES` (``"SC_OC"``,
    ``"MC_TL"``, ``"RCB"``, ``"SFC"``) or ``"DUAL"`` for the dual-phase
    scheme (which requires ``num_domains`` to be a multiple of
    ``num_processes``).
    """
    if strategy == "DUAL":
        if num_domains % num_processes:
            raise ValueError(
                "DUAL requires num_domains to be a multiple of num_processes"
        )
        domain, domain_process = dual_phase_partition(
            mesh,
            tau,
            num_processes,
            num_domains // num_processes,
            seed=seed,
            imbalance_tol=imbalance_tol,
        )
        return DomainDecomposition(
            domain=domain,
            num_domains=num_domains,
            domain_process=domain_process,
            num_processes=num_processes,
            strategy="DUAL",
        )
    try:
        fn = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from "
            f"{sorted(STRATEGIES)} or 'DUAL'"
        ) from None
    if strategy in ("SC_OC", "MC_TL"):
        domain = fn(
            mesh,
            tau,
            num_domains,
            seed=seed,
            imbalance_tol=imbalance_tol,
        )
    else:
        domain = fn(mesh, tau, num_domains, seed=seed)
    return DomainDecomposition.block_mapping(
        domain, num_domains, num_processes, strategy=strategy
    )
