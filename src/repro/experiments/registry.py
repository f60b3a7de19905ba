"""Experiment registry — the single source of truth for which
experiment harnesses exist.

A module registered here is at once a ``repro experiment`` choice and
a row of ``repro reproduce``'s scoreboard (:mod:`.scoreboard`).
Harness modules load only when a row runs, so the CLI's parser lists
the names without importing NumPy or any harness.

Each harness module states the paper's claims about its result once:
``CLAIMS`` holds comparisons (``"1.5 < speedup_cylinder < 3.0"``) over
the result's named scalars, evaluated by :func:`holds`.  The scalars
are :func:`scalar_fields` of the result, or the module's own
``metrics(result)`` where a claim needs a figure derived from arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Any, Mapping

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "available",
    "experiment",
    "holds",
    "scalar_fields",
    "run_experiment",
]

#: The only names a claim may call besides its metrics.
_CLAIM_BUILTINS = {"__builtins__": {}, "abs": abs, "max": max}


def holds(claim: str, metrics: Mapping[str, float]) -> bool:
    """Whether ``claim``, a Python comparison over metric names, is
    true of ``metrics`` (an unknown name raises ``NameError``)."""
    return bool(eval(claim, dict(_CLAIM_BUILTINS), dict(metrics)))


def scalar_fields(result) -> dict[str, float]:
    """A result's numeric fields, and the numeric entries of its
    string-keyed dict fields as ``field_key`` (key lower-cased)."""
    import numpy as np

    out = {}
    for name, value in vars(result).items():
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for key, v in items:
            if isinstance(v, (int, float, np.number, np.bool_)):
                if key is None:
                    out[name] = v
                elif isinstance(key, str):
                    out[f"{name}_{key.lower()}"] = v
    return out


@dataclass(frozen=True)
class Experiment:
    """One runnable harness: a module with ``run()``, its claims and
    (optionally) ``report()``.

    ``run_kwargs`` are fixed arguments (e.g. fig07/fig10's strategy);
    ``claims`` names the module constant holding this row's claims;
    ``takes_scale``/``takes_seed`` say whether ``run`` accepts a mesh
    depth and a seed.  A ``measured`` row's metrics are wall-clock
    timings: a rerun reproduces its verdicts, not its values.
    """

    module: str
    run_kwargs: tuple[tuple[str, Any], ...] = ()
    claims: str = "CLAIMS"
    takes_scale: bool = True
    takes_seed: bool = True
    measured: bool = False

    @property
    def harness(self):
        """The harness module."""
        return import_module(f"repro.experiments.{self.module}")

    @property
    def title(self) -> str:
        """The first paragraph of the harness's docstring."""
        return " ".join(self.harness.__doc__.split("\n\n")[0].split())

    def run(self, scale: int | None = None, seed: int | None = None):
        """Execute the harness and return its result."""
        kwargs = dict(self.run_kwargs)
        if self.takes_scale and scale is not None:
            kwargs["scale"] = scale
        if self.takes_seed and seed is not None:
            kwargs["seed"] = seed
        return self.harness.run(**kwargs)

    def metrics(self, result) -> dict[str, float]:
        """The named scalars the claims read off ``result``."""
        extract = getattr(self.harness, "metrics", scalar_fields)
        return {name: float(value) for name, value in extract(result).items()}

    def check(self, result) -> list[tuple[str, bool]]:
        """``(claim, holds)`` for each of this row's claims."""
        values = self.metrics(result)
        claims = getattr(self.harness, self.claims)
        return [(claim, holds(claim, values)) for claim in claims]


#: CLI name → experiment (sorted rendering is up to the caller).
EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment("table1", takes_seed=False),
    "fig05": Experiment("fig05_validation", measured=True),
    "fig06": Experiment("fig06_unbounded"),
    "fig07": Experiment(
        "fig07_10_characteristics", (("strategy", "SC_OC"),), "FIG07_CLAIMS"
    ),
    "fig08": Experiment("fig08_taskgraph_shape", takes_scale=False),
    "fig09": Experiment("fig09_speedup"),
    "fig10": Experiment(
        "fig07_10_characteristics", (("strategy", "MC_TL"),), "FIG10_CLAIMS"
    ),
    "fig11": Experiment(
        "fig11_sweep", (("domain_counts", (16, 32, 64, 128, 256)),)
    ),
    "fig12": Experiment("fig12_nozzle"),
    "fig13": Experiment("fig13_production", measured=True),
    "dual": Experiment("dual_phase"),
    "schedulers": Experiment("scheduler_ablation"),
    "baselines": Experiment("baseline_ablation"),
    "heun": Experiment("heun_ablation"),
    "comm": Experiment("comm_sensitivity"),
    "postprocess": Experiment("postprocess_study"),
    "granularity": Experiment("granularity_study"),
    "levels": Experiment("level_evolution"),
    "runtime": Experiment("runtime_validation", measured=True),
    "octree3d": Experiment("octree3d", takes_scale=False),
    "multi": Experiment("multi_iteration"),
    "scaling": Experiment("strong_scaling"),
    "distribution": Experiment("distribution_sensitivity", takes_scale=False),
    "adaptation": Experiment("adaptation_study", takes_scale=False),
    "components": Experiment("components"),
    "chaos": Experiment("chaos_study", measured=True),
}


def available() -> list[str]:
    """Registered experiment names, CLI order."""
    return list(EXPERIMENTS)


def experiment(name: str) -> Experiment:
    """The registered experiment ``name`` (``ValueError`` if none)."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(available())}"
        ) from None


def run_experiment(name: str, *, scale: int | None = None) -> str:
    """Run a registered experiment once; return its report followed by
    the verdict of each of its claims on this run."""
    exp = experiment(name)
    result = exp.run(scale)
    report = getattr(exp.harness, "report", None)
    if report is not None:
        lines = [report(result)]
    else:  # a row without a report of its own lists its metrics
        lines = [f"{k}: {v:g}" for k, v in exp.metrics(result).items()]
    lines += ["", "claims (this run):"]
    lines += [
        f"  {'holds' if ok else 'FAILS'}  {claim}"
        for claim, ok in exp.check(result)
    ]
    return "\n".join(lines)
