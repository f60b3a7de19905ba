"""Partitioning strategies (SC_OC, MC_TL, dual-phase, geometric
baselines) and domain decompositions."""

from .decomposition import DomainDecomposition
from .granularity import (
    GranularityCandidate,
    GranularityPoint,
    GranularitySearchResult,
    granularity_candidates,
    tune_granularity,
)
from .sfc import hilbert_codes, sfc_order
from .strategies import (
    STRATEGIES,
    dual_phase_partition,
    make_decomposition,
    mc_tl_partition,
    rcb_partition,
    sc_oc_partition,
    sfc_partition,
)

__all__ = [
    "DomainDecomposition",
    "sc_oc_partition",
    "mc_tl_partition",
    "dual_phase_partition",
    "rcb_partition",
    "sfc_partition",
    "make_decomposition",
    "STRATEGIES",
    "GranularityCandidate",
    "GranularityPoint",
    "GranularitySearchResult",
    "granularity_candidates",
    "tune_granularity",
    "hilbert_codes",
    "sfc_order",
]
