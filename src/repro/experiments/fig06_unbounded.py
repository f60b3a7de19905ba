"""Fig. 6 — idleness persists with unbounded cores.

The paper's §III-C thought experiment: 64 domains on 64 MPI processes,
each with an effectively unlimited number of cores and eager
scheduling (optimal in this regime, since every ready task starts
immediately).  Even so, composite processes exhibit idle periods — the
task graph's *shape*, not the scheduling policy, is the bottleneck.

The experiment reports per-process idle fractions and verifies the
schedule equals the DAG's earliest-start-time schedule (eager with
unbounded cores is optimal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import run_flusim

__all__ = ["Fig6Result", "run", "report", "CLAIMS"]

#: Eager with unbounded cores achieves the critical path, yet processes
#: idle, some much more than others.
CLAIMS = (
    "makespan == critical_path",
    "mean_idle_fraction > 0.10",
    "idle_spread > 0.10",
)


@dataclass
class Fig6Result:
    """Unbounded-cores idleness measurements."""

    makespan: float
    critical_path: float
    idle_fraction_per_process: np.ndarray
    mean_idle_fraction: float
    idle_spread: float  # max − min over processes


def run(
    *,
    mesh_name: str = "cylinder",
    domains: int = 64,
    processes: int = 64,
    scale: int | None = None,
    seed: int = 0,
) -> Fig6Result:
    """Run the unbounded-cores experiment (SC_OC, eager)."""
    rec = run_flusim(
        mesh_name, domains, processes, None, "SC_OC", scale=scale, seed=seed
    )
    trace, metrics = rec.trace, rec.metrics
    idle = np.array(
        [
            trace.process_idle_time(p) / trace.makespan
            for p in range(processes)
        ]
    )
    return Fig6Result(
        makespan=metrics.makespan,
        critical_path=metrics.critical_path,
        idle_fraction_per_process=idle,
        mean_idle_fraction=float(idle.mean()),
        idle_spread=float(idle.max() - idle.min()),
    )


def report(r: Fig6Result) -> str:
    """Makespan, critical path and composite-process idleness."""
    return (
        f"Unbounded cores, SC_OC, eager: makespan {r.makespan:.0f} "
        f"(critical path {r.critical_path:.0f}); mean composite-process "
        f"idle fraction {100 * r.mean_idle_fraction:.0f}% "
        f"(max {100 * r.idle_fraction_per_process.max():.0f}%)"
    )
