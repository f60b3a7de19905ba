"""Figs. 7 and 10 — domain characteristics under SC_OC vs MC_TL.

For the CYLINDER case on 16 processes (32 cores each):

* (a) the operating cost held by each process, broken down by temporal
  level — SC_OC concentrates each process in one level, MC_TL spreads
  every level across all processes;
* (b) the cumulative computation each process performs per
  subiteration — under SC_OC, processes 10–15 do nearly all their work
  in the first subiteration and then starve; under MC_TL every row is
  flat.

The result carries both matrices plus scalar *concentration* metrics,
so the claims can state the paper's qualitative findings numerically.
An MC_TL result carries the SC_OC result of the same case as its
``baseline``: Fig. 10's claims compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..taskgraph.analysis import (
    operating_cost_by_process_level,
    work_by_process_subiteration,
)
from .common import cached_decomposition, cached_task_graph, standard_case
from .registry import scalar_fields

__all__ = [
    "CharacteristicsResult", "run", "report", "metrics", "level_concentration",
    "FIG07_CLAIMS", "FIG10_CLAIMS",
]

#: SC_OC balances total cost but concentrates levels, and some process
#: does nearly all its work in subiteration 0 (paper: "almost entirely").
FIG07_CLAIMS = (
    "total_cost_imbalance < 1.25",
    "concentration > 0.55",
    "max_first_subiteration_share > 0.7",
)

#: MC_TL mixes levels, front-loads no process as SC_OC does, and keeps
#: every subiteration within 35% of its mean (paper: "completely balanced").
FIG10_CLAIMS = (
    "concentration < concentration_sc_oc - 0.1",
    "max_first_subiteration_share < max_first_subiteration_share_sc_oc",
    "worst_subiteration_balance < 1.35",
)


def level_concentration(cost_by_level: np.ndarray) -> float:
    """Mean over processes of the share held by the dominant temporal
    level (1.0 = every process fully single-level; 1/L = perfectly
    mixed)."""
    totals = cost_by_level.sum(axis=1, keepdims=True)
    totals = np.maximum(totals, 1e-300)
    return float((cost_by_level.max(axis=1, keepdims=True) / totals).mean())


def first_subiteration_share(work_by_sub: np.ndarray) -> np.ndarray:
    """Per-process share of work done in the first subiteration."""
    totals = np.maximum(work_by_sub.sum(axis=1), 1e-300)
    return work_by_sub[:, 0] / totals


@dataclass
class CharacteristicsResult:
    """Fig. 7/10 matrices and concentration summaries per strategy."""

    strategy: str
    cost_by_process_level: np.ndarray  # (P, L) — panel (a)
    work_by_process_subiteration: np.ndarray  # (P, S) — panel (b)
    concentration: float
    max_first_subiteration_share: float
    total_cost_imbalance: float  # max/mean of per-process total cost
    baseline: CharacteristicsResult | None = None  # SC_OC, same case


def run(
    strategy: str,
    *,
    mesh_name: str = "cylinder",
    domains: int = 16,
    processes: int = 16,
    scale: int | None = None,
    seed: int = 0,
) -> CharacteristicsResult:
    """Compute the Fig. 7 (SC_OC) or Fig. 10 (MC_TL) matrices."""
    mesh, tau = standard_case(mesh_name, scale=scale)
    decomp = cached_decomposition(
        mesh_name, domains, processes, strategy, scale=scale, seed=seed
    )
    dag = cached_task_graph(
        mesh_name, domains, processes, strategy, scale=scale, seed=seed
    )
    cost_lv = operating_cost_by_process_level(tau, decomp)
    work_sub = work_by_process_subiteration(dag, processes)
    totals = cost_lv.sum(axis=1)
    baseline = None
    if strategy != "SC_OC":
        baseline = run(
            "SC_OC", mesh_name=mesh_name, domains=domains,
            processes=processes, scale=scale, seed=seed,
        )
    return CharacteristicsResult(
        strategy=strategy,
        cost_by_process_level=cost_lv,
        work_by_process_subiteration=work_sub,
        concentration=level_concentration(cost_lv),
        max_first_subiteration_share=float(
            first_subiteration_share(work_sub).max()
        ),
        total_cost_imbalance=float(totals.max() / totals.mean()),
        baseline=baseline,
    )


def metrics(r: CharacteristicsResult) -> dict[str, float]:
    """The scalar fields, the worst per-subiteration max/mean and, for
    a result with a baseline, the baseline's scalar fields (``_sc_oc``
    suffix)."""
    w = r.work_by_process_subiteration
    out = scalar_fields(r)
    out["worst_subiteration_balance"] = (w.max(axis=0) / w.mean(axis=0)).max()
    if r.baseline is not None:
        for name, value in scalar_fields(r.baseline).items():
            out[f"{name}_sc_oc"] = value
    return out


def report(r: CharacteristicsResult) -> str:
    """Render both panels as stacked bars plus the summary line."""
    from ..viz import render_stacked_bars

    parts = [
        f"--- {r.strategy}: operating cost by temporal level (Fig 7a/10a) ---",
        render_stacked_bars(r.cost_by_process_level),
        f"--- {r.strategy}: work by subiteration (Fig 7b/10b) ---",
        render_stacked_bars(r.work_by_process_subiteration),
        (
            f"{r.strategy}: dominant-level concentration "
            f"{r.concentration:.2f}, max first-subiteration share "
            f"{r.max_first_subiteration_share:.2f}, total-cost imbalance "
            f"{r.total_cost_imbalance:.3f}"
        ),
    ]
    return "\n".join(parts)
