"""Automatic domain-granularity selection.

The paper's conclusion: "We are currently exploring ways to
automatically determine the best domain granularity with respect to
the target machine's number of cores."  The number of domains trades
three effects: more domains = more (finer) tasks = better pipelining
and core occupancy, but also more runtime overhead per task and more
cut faces (communication).

This module implements that exploration as a search over candidate
domain counts (multiples of the process count, geometric steps).  The
objective is simulated makespan plus optional per-task overhead and
per-cut-edge communication penalties — the two knobs FLUSIM itself
abstracts away but a production runtime pays.  Neither penalty changes
a decomposition, so :func:`granularity_candidates` partitions and
builds each candidate's task graph once, and :func:`tune_granularity`
scores one set of candidates under as many regimes as asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

import numpy as np

from ..mesh.structures import Mesh
from .strategies import make_decomposition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..flusim import ClusterConfig
    from ..taskgraph.dag import TaskDAG

# NOTE: flusim imports are deferred into the function bodies —
# repro.flusim depends on repro.partitioning (decompositions), so a
# module-level import here would be circular.

__all__ = [
    "GranularityCandidate",
    "GranularityPoint",
    "GranularitySearchResult",
    "granularity_candidates",
    "tune_granularity",
]


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


@dataclass
class GranularityCandidate:
    """One candidate domain count, decomposed and turned into a task
    graph once and scored under any number of overhead regimes."""

    domains: int
    dag: "TaskDAG"
    comm_volume: int


def granularity_candidates(
    mesh: Mesh,
    tau: np.ndarray,
    num_processes: int,
    *,
    strategy: str = "MC_TL",
    seed: int = 0,
) -> list[GranularityCandidate]:
    """Decompose the mesh and build its task graph at every candidate
    domain count.

    Candidates are geometric multiples of the process count
    (``P, 2P, 4P, …``) capped so domains keep a sensible minimum size
    (~32 cells on average).
    """
    from ..flusim import taskgraph_comm_volume
    from ..taskgraph import generate_task_graph

    P = num_processes
    max_domains = max(P, mesh.num_cells // 32)
    candidates = []
    d = P
    while d <= max_domains:
        decomp = make_decomposition(
            mesh, tau, d, P, strategy=strategy, seed=seed
        )
        dag = generate_task_graph(mesh, tau, decomp)
        candidates.append(
            GranularityCandidate(d, dag, taskgraph_comm_volume(dag))
        )
        d *= 2
    return candidates


def tune_granularity(
    candidates: list[GranularityCandidate],
    cluster: "ClusterConfig",
    *,
    task_overhead: float = 0.0,
    comm_cost: float = 0.0,
    scheduler: str = "eager",
) -> GranularitySearchResult:
    """Pick the candidate domain count minimizing the (penalized)
    makespan.

    Every candidate is simulated (the curve is cheap at replica scale
    and not reliably unimodal once overheads enter).  The candidates
    come from :func:`granularity_candidates`; one set serves every
    regime, since neither penalty changes a decomposition.

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
    from ..flusim import simulate

    evaluated = []
    for c in candidates:
        durations = c.dag.tasks.cost + task_overhead
        trace = simulate(
            c.dag, cluster, scheduler=scheduler, durations=durations
        )
        evaluated.append(
            GranularityPoint(
                domains=c.domains,
                makespan=trace.makespan,
                num_tasks=c.dag.num_tasks,
                comm_volume=c.comm_volume,
                objective=trace.makespan + comm_cost * c.comm_volume,
            )
        )
    best = min(evaluated, key=lambda p: p.objective)
    return GranularitySearchResult(best=best, evaluated=evaluated)
