"""Shared infrastructure for the experiment harnesses.

Historically this module owned its own memoization (a scatter of
unbounded ``functools.lru_cache`` maps) and the ``PAPER_CONFIGS``
dict.  Both now live in :mod:`repro.pipeline`: the chain is executed
by the typed pipeline runner against the process-wide artifact store
(bounded in-memory LRU, optional content-addressed disk layer), and
the paper configurations are the scenario registry.  The helpers here
are kept as thin wrappers so the experiment modules and external
callers keep their historical API.
"""

from __future__ import annotations

import numpy as np

from ..mesh import MESH_FACTORIES, Mesh
from ..partitioning import DomainDecomposition
from ..pipeline import (
    NUM_LEVELS,
    Pipeline,
    RunRecord,
    Scenario,
    paper_configs,
)

__all__ = [
    "NUM_LEVELS",
    "PAPER_CONFIGS",
    "standard_case",
    "standard_scenario",
    "cached_decomposition",
    "cached_task_graph",
    "run_flusim",
]

#: Legacy view of the scenario registry
#: (:data:`repro.pipeline.SCENARIOS`).
PAPER_CONFIGS = paper_configs()


def standard_scenario(
    name: str,
    domains: int = 1,
    processes: int = 1,
    cores: int | None = 1,
    strategy: str = "SC_OC",
    *,
    scale: int | None = None,
    seed: int = 0,
    scheduler: str = "eager",
    scheme: str = "euler",
    n_jobs: int | None = None,
) -> Scenario:
    """A pipeline :class:`~repro.pipeline.Scenario` on a named replica
    mesh with the Table I level caps (``n_jobs=None``: the partition
    stage resolves the worker count when it runs)."""
    if name not in MESH_FACTORIES:
        raise ValueError(f"unknown mesh {name!r}")
    return Scenario.standard(
        name,
        domains,
        processes,
        cores,
        strategy,
        scale=scale,
        seed=seed,
        scheduler=scheduler,
        scheme=scheme,
        n_jobs=n_jobs,
    )


def standard_case(
    name: str, *, scale: int | None = None
) -> tuple[Mesh, np.ndarray]:
    """Return ``(mesh, tau)`` for a named replica mesh.

    ``scale`` overrides the generator's default ``max_depth`` (smaller
    = fewer cells = faster experiments).  Served from the artifact
    store, so repeated calls return the same objects.
    """
    return Pipeline().case(standard_scenario(name, scale=scale))


def cached_decomposition(
    name: str,
    domains: int,
    processes: int,
    strategy: str,
    *,
    scale: int | None = None,
    seed: int = 0,
    n_jobs: int | None = None,
) -> DomainDecomposition:
    """Store-backed :func:`repro.partitioning.make_decomposition` on a
    standard case (``n_jobs=None`` uses the resolved default)."""
    sc = standard_scenario(
        name,
        domains,
        processes,
        strategy=strategy,
        scale=scale,
        seed=seed,
        n_jobs=n_jobs,
    )
    return Pipeline().run(sc, through="partition").decomp


def cached_task_graph(
    name: str,
    domains: int,
    processes: int,
    strategy: str,
    scale: int | None = None,
    seed: int = 0,
    n_jobs: int | None = None,
):
    """Store-backed task graph for a standard case + decomposition."""
    sc = standard_scenario(
        name,
        domains,
        processes,
        strategy=strategy,
        scale=scale,
        seed=seed,
        n_jobs=n_jobs,
    )
    return Pipeline().run(sc, through="taskgraph").dag


def run_flusim(
    name: str,
    domains: int,
    processes: int,
    cores: int | None,
    strategy: str,
    *,
    scale: int | None = None,
    seed: int = 0,
    scheduler: str = "eager",
) -> RunRecord:
    """One FLUSIM run on a standard case.

    Returns a typed :class:`~repro.pipeline.RunRecord` (with per-stage
    cache provenance in ``record.provenance``); iterating it yields
    the legacy ``(dag, trace, metrics)`` triple.
    """
    sc = standard_scenario(
        name,
        domains,
        processes,
        cores,
        strategy,
        scale=scale,
        seed=seed,
        scheduler=scheduler,
    )
    return Pipeline().run(sc)
