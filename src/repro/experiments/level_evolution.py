"""Extension study — do temporal levels really barely evolve?

The paper's whole methodology rests on §III-A's observation: "the
temporal levels of the cells experience minimal evolution across
iterations — hence, optimizing the entire computation is equivalent to
optimizing an individual iteration."  This study verifies the claim
with the real solver: a multi-iteration blast-wave campaign on the
CUBE replica tracks, per iteration, how many cells change level (with
production-style anchored-reference hysteresis re-leveling) and how
often the decomposition must be rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..solver import blast_wave
from ..solver.driver import SimulationDriver
from .common import standard_case
from .registry import scalar_fields

__all__ = ["LevelEvolutionResult", "run", "report", "metrics", "CLAIMS"]

#: Drift decays after the transient to a small tail (levels
#: essentially frozen), and repartitioning stops being needed.
CLAIMS = (
    "last_drift < 0.5 * max(first_drift, 1e-9) + 1e-9",
    "last_drift < 0.05",
    "num_repartitions < iterations",
)


@dataclass
class LevelEvolutionResult:
    """Campaign-level drift statistics."""

    iterations: int
    level_changes: list[int]
    drift_fraction: list[float]
    num_repartitions: int
    num_cells: int


def run(
    *,
    mesh_name: str = "cube",
    iterations: int = 8,
    num_domains: int = 8,
    num_processes: int = 4,
    strategy: str = "MC_TL",
    repartition_threshold: float = 0.05,
    scale: int | None = 8,
    seed: int = 0,
) -> LevelEvolutionResult:
    """Run the campaign and collect per-iteration drift."""
    mesh, _ = standard_case(mesh_name, scale=scale)
    U0 = blast_wave(mesh, center=(0.2, 0.25), radius=0.05, p_ratio=3.0)
    driver = SimulationDriver(
        mesh,
        U0,
        num_domains=num_domains,
        num_processes=num_processes,
        strategy=strategy,
        num_levels=4,
        relevel_every=1,
        repartition_threshold=repartition_threshold,
        seed=seed,
    )
    result = driver.run(iterations)
    changes = [r.level_changes for r in result.records]
    return LevelEvolutionResult(
        iterations=iterations,
        level_changes=changes,
        drift_fraction=[c / mesh.num_cells for c in changes],
        num_repartitions=result.num_repartitions,
        num_cells=mesh.num_cells,
    )


def metrics(r: LevelEvolutionResult) -> dict[str, float]:
    """The scalar fields and the first and last drift fractions."""
    d = r.drift_fraction
    return {**scalar_fields(r), "first_drift": d[0], "last_drift": d[-1]}


def report(r: LevelEvolutionResult) -> str:
    """Per-iteration drift and the repartition count."""
    rows = "  ".join(f"{100 * d:.1f}%" for d in r.drift_fraction)
    return (
        f"level drift per iteration ({r.num_cells} cells): {rows}\n"
        f"repartitions: {r.num_repartitions}/{r.iterations}"
    )
