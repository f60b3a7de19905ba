"""Extension study — real threaded execution of the task graph.

The paper's production runs execute the task graph with StarPU worker
threads; this study does the same with :mod:`repro.runtime`: the real
finite-volume kernels run on worker threads grouped into emulated
processes, producing a *real* execution trace (not a simulation, not a
replay).  We verify the physics is bit-compatible with serial
execution, and compare the two strategies' real traces.

Note: on a single-core host the threads time-share, so absolute
wall-clock does not speed up; the trace-level comparison (occupancy,
per-process balance) is hardware-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime import run_iteration_threaded
from ..solver import LTSState, TaskDistributedSolver, blast_wave
from ..solver.timestep import stable_timesteps
from .common import cached_decomposition, standard_case

__all__ = ["RuntimeValidationResult", "run", "report", "CLAIMS"]

#: Threaded physics equals serial; the timing-derived trace metrics
#: get sanity bounds only (unreliable on a time-shared host).
CLAIMS = tuple(
    claim
    for s in ("sc_oc", "mc_tl")
    for claim in (
        f"matches_serial_{s}",
        f"0.0 < efficiency_{s} <= 1.0",
        f"busy_balance_{s} < 2.5",
    )
)


@dataclass
class RuntimeValidationResult:
    """Threaded-execution comparison between strategies."""

    strategies: list[str]
    elapsed: dict[str, float]
    efficiency: dict[str, float]
    busy_balance: dict[str, float]  # max/mean of per-process busy time
    matches_serial: dict[str, bool]


def run(
    *,
    mesh_name: str = "pprime_nozzle",
    domains: int = 12,
    processes: int = 6,
    cores: int = 2,
    scale: int | None = None,
    seed: int = 0,
) -> RuntimeValidationResult:
    """Execute one iteration with real threads for both strategies."""
    mesh, tau = standard_case(mesh_name, scale=scale)
    U0 = blast_wave(mesh)
    dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())

    elapsed: dict[str, float] = {}
    efficiency: dict[str, float] = {}
    balance: dict[str, float] = {}
    matches: dict[str, bool] = {}
    for strategy in ("SC_OC", "MC_TL"):
        decomp = cached_decomposition(
            mesh_name, domains, processes, strategy, scale=scale, seed=seed
        )
        solver = TaskDistributedSolver(mesh, tau, decomp, dt_min)
        serial_state = LTSState(U0)
        solver.run_iteration(serial_state)

        threaded_state = LTSState(U0)
        run_res = run_iteration_threaded(
            solver, threaded_state, cores_per_process=cores
        )
        trace = run_res.result.trace
        busy = trace.busy_time_per_process()
        elapsed[strategy] = run_res.result.elapsed
        efficiency[strategy] = trace.efficiency()
        balance[strategy] = float(busy.max() / max(busy.mean(), 1e-300))
        matches[strategy] = bool(
            np.allclose(threaded_state.U, serial_state.U, atol=1e-11)
        )
    return RuntimeValidationResult(
        strategies=["SC_OC", "MC_TL"],
        elapsed=elapsed,
        efficiency=efficiency,
        busy_balance=balance,
        matches_serial=matches,
    )


def report(r: RuntimeValidationResult) -> str:
    """Per-strategy summary of the real threaded runs."""
    lines = []
    for s in r.strategies:
        lines.append(
            f"{s}: elapsed {r.elapsed[s] * 1e3:.1f} ms, trace efficiency "
            f"{r.efficiency[s]:.2f}, busy balance {r.busy_balance[s]:.2f}, "
            f"physics matches serial: {r.matches_serial[s]}"
        )
    return "\n".join(lines)
