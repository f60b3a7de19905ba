"""Fig. 8 — task-graph shape: SC_OC vs MC_TL on a two-domain toy.

The paper's illustration: with SC_OC a phase's work may be expressed
by tasks from a single domain (the other has no objects of the
phase's level), while MC_TL gives every domain tasks in every phase —
"a total of 8 tasks, 4 from each domain, instead of the 2 created by
SC_OC" for the first phase.

This experiment builds a small two-hotspot mesh, partitions it into
two domains with both strategies, and counts the tasks each phase of
the first subiteration receives from each domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh import cube_mesh
from ..partitioning import make_decomposition
from ..taskgraph import generate_task_graph
from ..temporal import levels_from_depth

__all__ = ["Fig8Result", "run", "report", "CLAIMS"]

#: MC_TL expresses the first subiteration with more, finer tasks, from
#: every domain in every phase; SC_OC leaves some phase to one domain.
CLAIMS = (
    "total_tasks_mc_tl > total_tasks_sc_oc",
    "domains_active_every_phase_mc_tl",
    "not domains_active_every_phase_sc_oc",
)


@dataclass
class Fig8Result:
    """Per-strategy phase/domain task counts for subiteration 0."""

    strategies: list[str]
    # strategy -> (L, ndom) task counts in subiteration 0 by phase τ.
    tasks_by_phase_domain: dict[str, np.ndarray]
    total_tasks: dict[str, int]
    domains_active_every_phase: dict[str, bool]


def run(*, scale: int = 7, seed: int = 0) -> Fig8Result:
    """Build the toy comparison (two domains)."""
    mesh = cube_mesh(max_depth=scale)
    tau = levels_from_depth(mesh, num_levels=3)
    nlev = int(tau.max()) + 1
    out: dict[str, np.ndarray] = {}
    totals: dict[str, int] = {}
    active: dict[str, bool] = {}
    for strategy in ("SC_OC", "MC_TL"):
        decomp = make_decomposition(
            mesh, tau, 2, 2, strategy=strategy, seed=seed
        )
        dag = generate_task_graph(mesh, tau, decomp)
        t = dag.tasks
        sel = t.subiteration == 0
        counts = np.zeros((nlev, 2), dtype=np.int64)
        np.add.at(counts, (t.phase_tau[sel], t.domain[sel]), 1)
        out[strategy] = counts
        totals[strategy] = int(sel.sum())
        active[strategy] = bool(np.all(counts.sum(axis=0) > 0) and np.all(
            counts > 0
        ))
    return Fig8Result(
        strategies=["SC_OC", "MC_TL"],
        tasks_by_phase_domain=out,
        total_tasks=totals,
        domains_active_every_phase=active,
    )


def report(r: Fig8Result) -> str:
    """Tabulate first-subiteration task counts per phase and domain."""
    lines = []
    for s in r.strategies:
        counts = r.tasks_by_phase_domain[s]
        lines.append(
            f"{s}: subiteration-0 tasks = {r.total_tasks[s]}; per phase "
            "(rows τ desc) × domain:"
        )
        for tph in range(counts.shape[0] - 1, -1, -1):
            lines.append(
                f"  τ={tph}: " + "  ".join(
                    f"d{d}={counts[tph, d]}" for d in range(counts.shape[1])
                )
            )
        lines.append(
            f"  every domain contributes tasks to every phase: "
            f"{r.domains_active_every_phase[s]}"
        )
    return "\n".join(lines)
