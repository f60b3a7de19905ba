"""Scenario registry — the named cluster/domain configurations of the
paper's experiments, as full pipeline scenarios.

Each entry is a typed :class:`~repro.pipeline.config.Scenario` the
runner can execute directly.
"""

from __future__ import annotations

from .config import Scenario

__all__ = ["SCENARIOS", "get_scenario"]

#: Named scenarios (paper experiment configurations).
SCENARIOS: dict[str, Scenario] = {
    # Fig 5/12/13: nozzle on 6 processes of 4 cores, 12 domains.
    "nozzle_validation": Scenario.standard(
        "pprime_nozzle", domains=12, processes=6, cores=4
    ),
    # Fig 6: 64 domains on 64 processes, unbounded cores.
    "unbounded": Scenario.standard(
        "cylinder", domains=64, processes=64, cores=None
    ),
    # Fig 7/10: 16 processes of 32 cores, 16 domains.
    "characteristics": Scenario.standard(
        "cylinder", domains=16, processes=16, cores=32
    ),
    # Fig 9: 128 domains on 16 processes of 32 cores (the figure runs
    # it on both CYLINDER and CUBE; cylinder is the registry default).
    "speedup": Scenario.standard(
        "cylinder", domains=128, processes=16, cores=32
    ),
}


def get_scenario(name: str, **options: object) -> Scenario:
    """A registered scenario, optionally with leaf options overridden
    (``domains=64``, ``strategy="MC_TL"``, ``scale=7``, ...)."""
    try:
        sc = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
    return sc.with_options(**options) if options else sc

