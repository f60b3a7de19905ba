"""Ablation — the result is integrator-independent.

The paper's solver uses second-order Heun; the repo supports both
forward-Euler and Heun local time stepping.  Heun doubles every phase
into predictor/corrector sweeps (2× tasks, 2× work) but preserves the
per-subiteration imbalance structure, so the MC_TL speedup must
persist under both schemes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pipeline import Pipeline
from .common import standard_scenario

__all__ = ["HeunAblation", "run", "CLAIMS"]

#: Heun exactly doubles tasks and work (work to a relative 1e-6), and
#: the MC_TL speedup persists under it.
CLAIMS = (
    "tasks_heun_sc_oc == 2 * tasks_euler_sc_oc",
    "tasks_heun_mc_tl == 2 * tasks_euler_mc_tl",
    "abs(work_heun_sc_oc - 2 * work_euler_sc_oc) <= 1e-6 * 2 * work_euler_sc_oc",
    "abs(work_heun_mc_tl - 2 * work_euler_mc_tl) <= 1e-6 * 2 * work_euler_mc_tl",
    "speedup_heun > 1.2",
    "speedup_heun >= 0.9 * speedup_euler",
)


@dataclass
class HeunAblation:
    """Makespan, task count and total work per ``"<scheme>_<strategy>"``;
    SC_OC / MC_TL makespan per scheme."""

    makespan: dict[str, float]
    tasks: dict[str, int]
    work: dict[str, float]
    speedup: dict[str, float]


def run(
    *,
    mesh_name: str = "cylinder",
    domains: int = 64,
    processes: int = 16,
    cores: int = 32,
    scale: int | None = None,
    seed: int = 0,
) -> HeunAblation:
    """Both schemes × both strategies through the pipeline."""
    r = HeunAblation({}, {}, {}, {})
    for scheme in ("euler", "heun"):
        for strategy in ("SC_OC", "MC_TL"):
            scenario = standard_scenario(
                mesh_name, domains, processes, cores, strategy,
                scale=scale, seed=seed, scheme=scheme,
            )
            rec = Pipeline().run(scenario)
            key = f"{scheme}_{strategy}"
            r.makespan[key] = rec.metrics.makespan
            r.tasks[key] = rec.dag.num_tasks
            r.work[key] = rec.dag.total_work()
        r.speedup[scheme] = (
            r.makespan[f"{scheme}_SC_OC"] / r.makespan[f"{scheme}_MC_TL"]
        )
    return r
