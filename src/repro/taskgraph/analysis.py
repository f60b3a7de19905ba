"""Task-graph analytics used by the experiments.

Computes the per-process workload matrices behind Figs. 7 and 10 of
the paper.
"""

from __future__ import annotations

import numpy as np

from ..partitioning.decomposition import DomainDecomposition
from ..temporal.levels import operating_costs
from .dag import TaskDAG

__all__ = ["work_by_process_subiteration", "operating_cost_by_process_level"]


def work_by_process_subiteration(
    dag: TaskDAG, num_processes: int
) -> np.ndarray:
    """Work per (process, subiteration) — Fig. 7b / Fig. 10b.

    With SC_OC some processes concentrate nearly all their work in the
    first subiteration; MC_TL spreads every row evenly.
    """
    t = dag.tasks
    nsub = int(t.subiteration.max()) + 1 if t.num_tasks else 1
    out = np.zeros((num_processes, nsub), dtype=np.float64)
    np.add.at(out, (t.process, t.subiteration), t.cost)
    return out


def operating_cost_by_process_level(
    tau: np.ndarray, decomp: DomainDecomposition
) -> np.ndarray:
    """Operating cost per (process, temporal level) — the exact
    quantity plotted in the paper's Fig. 7a (cell-based, independent of
    task costs)."""
    tau = np.asarray(tau, dtype=np.int64)
    nlev = int(tau.max()) + 1
    cost = operating_costs(tau)
    out = np.zeros((decomp.num_processes, nlev), dtype=np.float64)
    np.add.at(out, (decomp.cell_process, tau), cost)
    return out
