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

Extension studies beyond the paper's figures:

==========================  =======================================
comm_sensitivity            α/β link-cost sweep (overlap assumption)
postprocess_study           reconnecting fragmented MC_TL domains
granularity_study           automatic domain-count tuning
level_evolution             §III-A stationarity, verified with solver
runtime_validation          real threaded execution of the kernels
octree3d                    the phenomenon on a true 3D octree mesh
multi_iteration             cross-iteration pipelining (steady state)
distribution_sensitivity    when does MC_TL matter? (τ-mix sweep)
strong_scaling              SC_OC saturates; MC_TL keeps scaling
chaos_study                 campaigns under injected faults
ablations                   schedulers, RCB/SFC baselines
==========================  =======================================

``ablations`` is not a row of :data:`~.registry.EXPERIMENTS`, so
``repro experiment`` cannot run it; two ``benchmarks/bench_ablation_*``
wrappers (partitioner, schedulers) are its callers.
"""

from . import (
    ablations,
    adaptation_study,
    chaos_study,
    comm_sensitivity,
    distribution_sensitivity,
    dual_phase,
    fig05_validation,
    fig06_unbounded,
    fig07_10_characteristics,
    fig08_taskgraph_shape,
    fig09_speedup,
    fig11_sweep,
    fig12_nozzle,
    fig13_production,
    granularity_study,
    level_evolution,
    multi_iteration,
    octree3d,
    postprocess_study,
    runtime_validation,
    strong_scaling,
    table1,
)
from .common import (
    NUM_LEVELS,
    cached_decomposition,
    cached_task_graph,
    run_flusim,
    standard_case,
    standard_scenario,
)
from .registry import EXPERIMENTS, available, run_experiment

__all__ = [
    "table1",
    "fig05_validation",
    "fig06_unbounded",
    "fig07_10_characteristics",
    "fig08_taskgraph_shape",
    "fig09_speedup",
    "fig11_sweep",
    "fig12_nozzle",
    "fig13_production",
    "dual_phase",
    "ablations",
    "adaptation_study",
    "chaos_study",
    "comm_sensitivity",
    "distribution_sensitivity",
    "multi_iteration",
    "strong_scaling",
    "postprocess_study",
    "granularity_study",
    "level_evolution",
    "octree3d",
    "runtime_validation",
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
