"""Automatic domain-granularity selection.

The paper's conclusion: "We are currently exploring ways to
automatically determine the best domain granularity with respect to
the target machine's number of cores."  The number of domains trades
three effects: more domains = more (finer) tasks = better pipelining
and core occupancy, but also more runtime overhead per task and more
cut faces (communication).

This module implements that exploration as a golden-section-style
search over candidate domain counts (multiples of the process count,
geometric steps).  The objective is simulated makespan plus optional
per-task overhead and per-cut-edge communication penalties — the two
knobs FLUSIM itself abstracts away but a production runtime pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

import numpy as np

from ..mesh.structures import Mesh
from .strategies import make_decomposition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..flusim import ClusterConfig

# NOTE: flusim imports are deferred into the function bodies —
# repro.flusim depends on repro.partitioning (decompositions), so a
# module-level import here would be circular.

__all__ = ["GranularityPoint", "GranularitySearchResult", "tune_granularity"]


@dataclass
class GranularityPoint:
    """One evaluated domain count."""

    domains: int
    makespan: float
    num_tasks: int
    comm_volume: int
    objective: float


@dataclass
class GranularitySearchResult:
    """Outcome of :func:`tune_granularity`.

    Attributes
    ----------
    best:
        The evaluated point minimizing the objective.
    evaluated:
        All evaluated points, ascending domain count.
    """

    best: GranularityPoint
    evaluated: list[GranularityPoint] = field(default_factory=list)

    def domain_counts(self) -> list[int]:
        """Evaluated domain counts, ascending."""
        return [p.domains for p in self.evaluated]


def _evaluate(
    mesh: Mesh,
    tau: np.ndarray,
    cluster: "ClusterConfig",
    domains: int,
    *,
    strategy: str,
    seed: int,
    task_overhead: float,
    comm_cost: float,
    scheduler: str,
) -> GranularityPoint:
    from ..flusim import simulate, taskgraph_comm_volume
    from ..taskgraph import generate_task_graph

    decomp = make_decomposition(
        mesh, tau, domains, cluster.num_processes, strategy=strategy, seed=seed
    )
    dag = generate_task_graph(mesh, tau, decomp)
    durations = dag.tasks.cost + task_overhead
    trace = simulate(dag, cluster, scheduler=scheduler, durations=durations)
    comm = taskgraph_comm_volume(dag)
    objective = trace.makespan + comm_cost * comm
    return GranularityPoint(
        domains=domains,
        makespan=trace.makespan,
        num_tasks=dag.num_tasks,
        comm_volume=comm,
        objective=objective,
    )


def tune_granularity(
    mesh: Mesh,
    tau: np.ndarray,
    cluster: "ClusterConfig",
    *,
    strategy: str = "MC_TL",
    seed: int = 0,
    task_overhead: float = 0.0,
    comm_cost: float = 0.0,
    scheduler: str = "eager",
) -> GranularitySearchResult:
    """Search the domain count minimizing the (penalized) makespan.

    Candidates are geometric multiples of the process count
    (``P, 2P, 4P, …``) capped so domains keep a sensible minimum size;
    the search evaluates all candidates (the curve is cheap at replica
    scale and not reliably unimodal once overheads enter).

    Parameters
    ----------
    task_overhead:
        Constant added to every task's duration (runtime submission
        and management cost per task — what makes "very low granularity
        tasks" expensive, paper §IV).
    comm_cost:
        Penalty per cross-process task-graph edge added to the
        objective (models eager-progression communication cost).

    Returns
    -------
    :class:`GranularitySearchResult`; ``result.best.domains`` is the
    recommended domain count.
    """
    P = cluster.num_processes
    # Do not shrink the average domain below ~32 cells.
    max_domains = max(P, mesh.num_cells // 32)
    candidates: list[int] = []
    d = P
    while d <= max_domains:
        candidates.append(d)
        d *= 2

    evaluated = [
        _evaluate(
            mesh,
            tau,
            cluster,
            d,
            strategy=strategy,
            seed=seed,
            task_overhead=task_overhead,
            comm_cost=comm_cost,
            scheduler=scheduler,
        )
        for d in candidates
    ]
    best = min(evaluated, key=lambda p: p.objective)
    return GranularitySearchResult(best=best, evaluated=evaluated)
