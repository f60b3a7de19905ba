"""Experiment harnesses — one module per table/figure of the paper.

==================  ==========================================
module              reproduces
==================  ==========================================
table1              Table I (mesh characteristics)
fig05_validation    Fig. 5 (FLUSIM vs measured execution)
fig06_unbounded     Fig. 6 (idleness with unbounded cores)
fig07_10_...        Figs. 7 & 10 (domain characteristics)
fig08_...           Fig. 8 (task-graph shape, 2-domain toy)
fig09_speedup       Fig. 9 (the ×2 speedup)
fig11_sweep         Fig. 11a/b (domain-count sweep)
fig12_nozzle        Fig. 12 (nozzle FLUSIM, ~20%)
fig13_production    Fig. 13 (production replay, ~20%)
dual_phase          §VII perspective (MC_TL→SC_OC dual phase)
==================  ==========================================

Ablations and extension studies beyond the paper's figures:

==========================  =======================================
scheduler_ablation          every FLUSIM scheduler on both strategies
baseline_ablation           RCB/SFC geometric baselines
heun_ablation               Euler vs Heun local time stepping
comm_sensitivity            α/β link-cost sweep (overlap assumption)
postprocess_study           reconnecting fragmented MC_TL domains
granularity_study           automatic domain-count tuning
level_evolution             §III-A stationarity, verified with solver
runtime_validation          real threaded execution of the kernels
octree3d                    the phenomenon on a true 3D octree mesh
multi_iteration             cross-iteration pipelining (steady state)
strong_scaling              SC_OC saturates; MC_TL keeps scaling
distribution_sensitivity    when does MC_TL matter? (τ-mix sweep)
adaptation_study            solve → adapt → re-level → re-partition
components                  each kernel's output, checked once
chaos_study                 campaigns under injected faults
==========================  =======================================

Every module is a row of :data:`~.registry.EXPERIMENTS`, imported when
the row runs, and states its own ``CLAIMS``; :mod:`.scoreboard` runs
the rows over seeds into ``REPRODUCTION.json``.
"""

from .registry import EXPERIMENTS, available, run_experiment


def __getattr__(name: str):
    # Lazy: common imports the whole compute stack, and the CLI's
    # parser reads the registry through this package.
    if name in __all__:
        from . import common

        return getattr(common, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "standard_case",
    "standard_scenario",
    "cached_decomposition",
    "cached_task_graph",
    "run_flusim",
    "NUM_LEVELS",
    "EXPERIMENTS",
    "available",
    "run_experiment",
]
