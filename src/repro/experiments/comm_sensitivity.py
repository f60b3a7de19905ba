"""Extension study — how much communication cost can MC_TL absorb?

The paper expects MC_TL's extra communication volume (Fig. 11b) "to be
overlapped by FLUSEPA thanks to its use of the task-based programming
model", and proposes the dual-phase scheme when it is not (§VII).
This experiment quantifies the assumption with FLUSIM's α/β extension:
sweeping the per-message latency shows where SC_OC/MC_TL cross over,
and where the dual-phase scheme lands between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import ClusterConfig, CommModel, simulate
from .common import cached_task_graph

__all__ = ["CommSensitivityResult", "run", "report", "metrics", "CLAIMS"]

#: MC_TL wins at zero cost, its advantage decays and crosses over with
#: latency, and DUAL stays within 25% of the best up to latency 100.
CLAIMS = (
    "ratio_0 > 1.2",
    "ratio_200 < ratio_0",
    "min_ratio <= 1.0",
    "dual_over_best_to_100 <= 1.25",
)


@dataclass
class CommSensitivityResult:
    """Makespans per (strategy, latency)."""

    strategies: list[str]
    latencies: list[float]
    makespan: dict[str, np.ndarray]  # strategy -> per-latency array

    def ratio(self, a: str = "SC_OC", b: str = "MC_TL") -> np.ndarray:
        """Makespan ratio a/b along the latency sweep."""
        return self.makespan[a] / self.makespan[b]

    def crossover_latency(self) -> float | None:
        """First latency where SC_OC ≤ MC_TL (None if MC_TL always
        wins within the sweep)."""
        r = self.ratio()
        idx = np.flatnonzero(r <= 1.0)
        return float(self.latencies[idx[0]]) if len(idx) else None


def run(
    *,
    mesh_name: str = "cylinder",
    domains: int = 64,
    processes: int = 16,
    cores: int = 32,
    latencies: tuple[float, ...] = (0.0, 5.0, 25.0, 50.0, 100.0, 200.0),
    strategies: tuple[str, ...] = ("SC_OC", "MC_TL", "DUAL"),
    scale: int | None = None,
    seed: int = 0,
) -> CommSensitivityResult:
    """Sweep message latency for every strategy."""
    cluster = ClusterConfig(processes, cores)
    makespan: dict[str, np.ndarray] = {}
    for strategy in strategies:
        dag = cached_task_graph(
            mesh_name, domains, processes, strategy, scale=scale, seed=seed
        )
        spans = [
            simulate(
                dag, cluster, comm=CommModel(latency=lat), seed=seed
            ).makespan
            for lat in latencies
        ]
        makespan[strategy] = np.array(spans)
    return CommSensitivityResult(
        strategies=list(strategies),
        latencies=list(latencies),
        makespan=makespan,
    )


def metrics(r: CommSensitivityResult) -> dict[str, float]:
    """Per latency: the SC_OC/MC_TL ratio and DUAL over the better of
    the two; the smallest ratio (≤ 1 once MC_TL is overtaken), and the
    largest DUAL/best up to latency 100."""
    ratio = r.ratio()
    best = np.minimum(r.makespan["SC_OC"], r.makespan["MC_TL"])
    dual = r.makespan["DUAL"] / best
    out: dict[str, float] = {}
    for i, lat in enumerate(r.latencies):
        out[f"ratio_{lat:g}"] = ratio[i]
        out[f"dual_over_best_{lat:g}"] = dual[i]
    out["min_ratio"] = ratio.min()
    out["dual_over_best_to_100"] = dual[np.array(r.latencies) <= 100.0].max()
    return out


def report(r: CommSensitivityResult) -> str:
    """Tabulate the latency sweep."""
    lines = [
        "latency:  " + "  ".join(f"{v:>8.1f}" for v in r.latencies)
    ]
    for s in r.strategies:
        lines.append(
            f"{s:>7s}:  "
            + "  ".join(f"{v:>8.0f}" for v in r.makespan[s])
        )
    lines.append(
        "SC/MC  :  " + "  ".join(f"{v:>8.2f}" for v in r.ratio())
    )
    cx = r.crossover_latency()
    lines.append(
        f"crossover latency: {cx if cx is not None else 'none in sweep'}"
    )
    return "\n".join(lines)
