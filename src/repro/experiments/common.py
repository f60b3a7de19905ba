"""Shared infrastructure for the experiment harnesses.

The chain is executed by the typed pipeline runner of
:mod:`repro.pipeline` against the process-wide artifact store (bounded
in-memory LRU, optional content-addressed disk layer), and the paper
configurations are its scenario registry
(:data:`repro.pipeline.SCENARIOS`).  The helpers here are thin
wrappers so the experiment modules keep one small API.
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
)

__all__ = [
    "NUM_LEVELS",
    "standard_case",
    "standard_scenario",
    "cached_decomposition",
    "cached_task_graph",
    "run_flusim",
]


def standard_scenario(
    name: str,
    domains: int = 1,
    processes: int = 1,
    cores: int | None = 1,
    strategy: str = "SC_OC",
    *,
    scale: int | None = None,
    seed: int = 0,
    scheme: str = "euler",
) -> Scenario:
    """A pipeline :class:`~repro.pipeline.Scenario` on a named replica
    mesh with the Table I level caps and the eager scheduler."""
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
        scheme=scheme,
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
) -> DomainDecomposition:
    """Store-backed :func:`repro.partitioning.make_decomposition` on a
    standard case."""
    sc = standard_scenario(
        name,
        domains,
        processes,
        strategy=strategy,
        scale=scale,
        seed=seed,
    )
    return Pipeline().run(sc, through="partition").decomp


def cached_task_graph(
    name: str,
    domains: int,
    processes: int,
    strategy: str,
    scale: int | None = None,
    seed: int = 0,
):
    """Store-backed task graph for a standard case + decomposition."""
    sc = standard_scenario(
        name,
        domains,
        processes,
        strategy=strategy,
        scale=scale,
        seed=seed,
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
) -> RunRecord:
    """One FLUSIM run (eager scheduler) on a standard case.

    Returns a typed :class:`~repro.pipeline.RunRecord` (with per-stage
    cache provenance in ``record.provenance``).
    """
    sc = standard_scenario(
        name,
        domains,
        processes,
        cores,
        strategy,
        scale=scale,
        seed=seed,
    )
    return Pipeline().run(sc)
