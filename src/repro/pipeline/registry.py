"""Scenario registry — the named cluster/domain configurations of the
paper's experiments, as full pipeline scenarios.

This replaces the old ``PAPER_CONFIGS`` dict-of-dicts scatter: each
entry is a typed :class:`~repro.pipeline.config.Scenario` the runner
can execute directly, and the legacy view is derived from it (see
:func:`paper_configs`).
"""

from __future__ import annotations

from .config import Scenario

__all__ = ["SCENARIOS", "get_scenario", "paper_configs"]

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

#: Scenarios whose legacy ``PAPER_CONFIGS`` entry omitted the mesh
#: (the experiment sweeps meshes itself).
_LEGACY_MESH_SWEPT = frozenset({"speedup"})

#: Entries that predate the pipeline and must keep their exact legacy
#: ``PAPER_CONFIGS`` shape.
_LEGACY_NAMES = (
    "nozzle_validation",
    "unbounded",
    "characteristics",
    "speedup",
)


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


def paper_configs() -> dict[str, dict]:
    """The legacy ``PAPER_CONFIGS`` view, derived from the registry."""
    out: dict[str, dict] = {}
    for name in _LEGACY_NAMES:
        sc = SCENARIOS[name]
        cfg: dict = {}
        if name not in _LEGACY_MESH_SWEPT:
            cfg["mesh"] = sc.mesh.name
        cfg.update(
            domains=sc.partition.domains,
            processes=sc.partition.processes,
            cores=sc.schedule.cores,
        )
        out[name] = cfg
    return out
