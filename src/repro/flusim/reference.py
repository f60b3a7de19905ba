"""Seed (pre-optimization) FLUSIM engine, kept as an oracle.

The low-overhead engine in :mod:`repro.flusim.simulator` replaced this
module's per-successor Python loop (NumPy scalar indexing inside the
heapq drain).  The original engine is kept here verbatim as a
**differential oracle**: tests and the fuzz harness assert the fast
engine produces *bit-identical* traces on the same DAG, scheduler,
durations and communication model (the proven pattern from
:mod:`repro.graph.reference`).

This function is *not* used by the library at runtime.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..taskgraph.dag import TaskDAG
from .cluster import ClusterConfig
from .commmodel import CommModel
from .schedulers import make_scheduler
from .trace import Trace

__all__ = ["simulate_ref"]

_COMPLETION = 0
_READY = 1


def simulate_ref(
    dag: TaskDAG,
    cluster: ClusterConfig,
    *,
    scheduler: str = "eager",
    durations: np.ndarray | None = None,
    comm: CommModel | None = None,
    seed: int = 0,
) -> Trace:
    """Seed implementation of the FLUSIM event loop (see
    :func:`repro.flusim.simulator.simulate` for the parameter
    documentation)."""
    T = dag.num_tasks
    if durations is None:
        durations = dag.tasks.cost
    durations = np.asarray(durations, dtype=np.float64)
    if len(durations) != T:
        raise ValueError("durations length mismatch")
    if np.any(durations < 0):
        raise ValueError("negative duration")
    nproc = cluster.num_processes
    tproc = dag.tasks.process
    if T and (tproc.min() < 0 or tproc.max() >= nproc):
        raise ValueError("task process out of cluster range")
    if comm is not None and comm.is_free:
        comm = None

    bottom_levels = None
    if scheduler == "cp":
        _, bottom_levels = dag.critical_path()
    queue_factory = make_scheduler(
        scheduler,
        bottom_levels=bottom_levels,
        costs=dag.tasks.cost,
        seed=seed,
    )
    ready = [queue_factory() for _ in range(nproc)]

    indeg = dag.in_degrees()
    sx, sa = dag.successors_csr()
    nobj = dag.tasks.num_objects

    # Per-process pool of free worker ids (smallest first for a stable
    # Gantt layout).  For unbounded clusters workers are created lazily.
    cores = cluster.cores
    free_workers: list[list[int]] = [[] for _ in range(nproc)]
    next_worker = [0] * nproc
    free_count = [cores] * nproc

    out_proc = tproc.astype(np.int32).copy()
    out_worker = np.zeros(T, dtype=np.int32)
    out_start = np.zeros(T, dtype=np.float64)
    out_end = np.zeros(T, dtype=np.float64)
    ready_at = np.zeros(T, dtype=np.float64)

    events: list[tuple[float, int, int, int]] = []  # (t, kind, tiebreak, task)
    counter = 0

    def assign(p: int, now: float) -> None:
        nonlocal counter
        while free_count[p] > 0 and len(ready[p]) > 0:
            t = ready[p].pop()
            if free_workers[p]:
                w = heapq.heappop(free_workers[p])
            else:
                w = next_worker[p]
                next_worker[p] += 1
            free_count[p] -= 1
            out_worker[t] = w
            out_start[t] = now
            out_end[t] = now + durations[t]
            heapq.heappush(events, (out_end[t], _COMPLETION, counter, t))
            counter += 1

    for t in np.flatnonzero(indeg == 0):
        ready[tproc[t]].push(int(t), 0.0)
    for p in range(nproc):
        assign(p, 0.0)

    done = 0
    while events:
        now = events[0][0]
        touched: set[int] = set()
        # Drain every event at this instant before reassigning.
        while events and events[0][0] <= now + 1e-15:
            _, kind, _, t = heapq.heappop(events)
            if kind == _READY:
                pu = int(tproc[t])
                ready[pu].push(int(t), ready_at[t])
                touched.add(pu)
                continue
            done += 1
            p = int(tproc[t])
            heapq.heappush(free_workers[p], int(out_worker[t]))
            free_count[p] += 1
            touched.add(p)
            size = int(nobj[t])
            for u in sa[sx[t] : sx[t + 1]]:
                if comm is not None and tproc[u] != p:
                    arrival = now + comm.delay(size)
                    if arrival > ready_at[u]:
                        ready_at[u] = arrival
                indeg[u] -= 1
                if indeg[u] == 0:
                    pu = int(tproc[u])
                    if comm is not None and ready_at[u] > now + 1e-15:
                        heapq.heappush(
                            events, (float(ready_at[u]), _READY, counter, int(u))
                        )
                        counter += 1
                    else:
                        ready[pu].push(int(u), now)
                        touched.add(pu)
        for p in touched:
            assign(p, now)

    if done != T:
        raise RuntimeError(
            f"deadlock: only {done}/{T} tasks completed (cyclic graph?)"
        )
    return Trace(
        process=out_proc,
        worker=out_worker,
        start=out_start,
        end=out_end,
        num_processes=nproc,
        cores_per_process=cores,
    )
