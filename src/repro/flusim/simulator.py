"""The FLUSIM discrete-event simulator.

Reimplements the paper's FLUSIM submodule (§III-A): given a cluster
configuration, a task graph and a scheduling strategy, it emulates one
solver iteration with list scheduling.  By design "no communication or
runtime overheads are considered — the objective is to evaluate the
scheduling of diverse DAGs within an idealized environment", which is
exactly what isolates the task-graph-shape effects the paper studies.
An optional :class:`~repro.flusim.commmodel.CommModel` re-introduces
α/β costs on cross-process dependencies for sensitivity studies.

Tasks are bound to the process owning their extraction domain; within a
process, free cores pull ready tasks according to the strategy.  The
engine is event-driven: a heap of task completions (and, with a
communication model, message arrivals) advances time, and after *all*
events at the current instant are processed, free cores are refilled —
so simultaneous completions release their successors together, like a
real runtime.

Implementation
--------------
The seed event loop (kept verbatim as the differential oracle in
:mod:`repro.flusim.reference`) spent its time in NumPy *scalar*
indexing: one fancy-index in-degree decrement and two scalar gathers
per dependency edge, inside a Python ``for u in sa[...]`` loop.  This
module keeps the identical event semantics with all per-event state
(in-degrees, CSR adjacency, durations, ready times) in plain Python
lists, whose element access is several times cheaper than NumPy scalar
indexing; the ``eager`` policy additionally swaps the heap-based FIFO
for :class:`~repro.flusim.schedulers.ArrayFifoQueue` (push times are
monotone in simulation time, so FIFO order *is* insertion order).
Cross-process communication delays are precomputed per task (a single
vectorized α + size/β evaluation) instead of one ``comm.delay`` call
per edge.

Algorithm 1 emits one task per (domain, temporal level, locality,
object type), so its DAGs are narrow (mean out-degree 2.8–8.1 on every
chain the registry and the benchmark build); a per-completion NumPy
release only overtakes the list loop past ~60 successors per task
(EXPERIMENTS.md, "Traffic behind the deleted forks").  Traces are
bit-identical to the reference oracle; the tests and the fuzz harness
enforce this.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..taskgraph.dag import TaskDAG
from .cluster import ClusterConfig
from .commmodel import CommModel
from .schedulers import ArrayFifoQueue, make_scheduler
from .trace import Trace

__all__ = ["simulate"]

_COMPLETION = 0
_READY = 1
_EPS = 1e-15


def simulate(
    dag: TaskDAG,
    cluster: ClusterConfig,
    *,
    scheduler: str = "eager",
    durations: np.ndarray | None = None,
    comm: CommModel | None = None,
    seed: int = 0,
) -> Trace:
    """Simulate one iteration of the solver on a virtual cluster.

    Parameters
    ----------
    dag:
        The task graph; ``dag.tasks.process`` must address processes in
        ``[0, cluster.num_processes)``.
    scheduler:
        Ready-queue policy (see
        :mod:`repro.flusim.schedulers`): ``"eager"`` (paper default),
        ``"lifo"``, ``"cp"``, ``"sjf"``, ``"ljf"``, ``"random"``.
    durations:
        Optional per-task durations overriding ``dag.tasks.cost`` —
        used to *replay* measured solver timings on the virtual
        cluster (production-validation experiments).  Must be finite
        and non-negative; NaN/inf are rejected up front (a poisoned
        duration would otherwise silently corrupt every downstream
        start/end time — the resilience fault injector can produce
        exactly that).
    comm:
        Optional α/β communication model; cross-process dependencies
        then delay successor readiness by ``α + objects/β``.  ``None``
        (default) reproduces the paper's overhead-free FLUSIM.

    Returns
    -------
    :class:`~repro.flusim.trace.Trace` with per-task placement and
    timing.
    """
    T = dag.num_tasks
    if durations is None:
        durations = dag.tasks.cost
    durations = np.asarray(durations, dtype=np.float64)
    if len(durations) != T:
        raise ValueError("durations length mismatch")
    if not np.all(np.isfinite(durations)):
        bad = int(np.flatnonzero(~np.isfinite(durations))[0])
        raise ValueError(
            f"non-finite duration (task {bad}: {durations[bad]!r}); "
            "NaN/inf durations would corrupt every downstream time"
        )
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
    if scheduler == "eager" and comm is None:
        # Without READY events every push in a drain carries the same
        # clock value, so FIFO-by-(time, arrival) == insertion order
        # and the heap is pure overhead.  With a comm model a READY
        # push can carry a time inside the drain epsilon, where the
        # heap's (time, arrival) order differs — keep FifoQueue there.
        queue_factory = ArrayFifoQueue
    else:
        queue_factory = make_scheduler(
            scheduler,
            bottom_levels=bottom_levels,
            costs=dag.tasks.cost,
            seed=seed,
        )
    ready = [queue_factory() for _ in range(nproc)]

    indeg = dag.in_degrees()
    sx, sa = dag.successors_csr()

    # Per-task cross-process delay, precomputed in one vectorized pass
    # (the seed engine re-evaluated comm.delay per dependency edge).
    delays = None
    if comm is not None:
        nobj = dag.tasks.num_objects
        if comm.bandwidth == float("inf"):
            delays = np.full(T, comm.latency, dtype=np.float64)
        else:
            delays = comm.latency + (
                nobj * comm.bytes_per_object / comm.bandwidth
            )

    out_worker, out_start, out_end = _event_loop(
        T, nproc, cluster.cores, tproc, durations, indeg, sx, sa,
        ready, delays,
    )

    return Trace(
        process=tproc.astype(np.int32).copy(),
        worker=np.asarray(out_worker, dtype=np.int32),
        start=np.asarray(out_start, dtype=np.float64),
        end=np.asarray(out_end, dtype=np.float64),
        num_processes=nproc,
        cores_per_process=cluster.cores,
    )


def _event_loop(
    T: int,
    nproc: int,
    cores: int,
    tproc: np.ndarray,
    durations: np.ndarray,
    indeg: np.ndarray,
    sx: np.ndarray,
    sa: np.ndarray,
    ready: list,
    delays: np.ndarray | None,
) -> tuple[list[int], list[float], list[float]]:
    """The event loop: all per-event state in Python lists."""
    heappush = heapq.heappush
    heappop = heapq.heappop
    sx_l = sx.tolist()
    sa_l = sa.tolist()
    indeg_l = indeg.tolist()
    tproc_l = tproc.tolist()
    dur_l = durations.tolist()
    has_comm = delays is not None
    delays_l = delays.tolist() if has_comm else None
    ready_at = [0.0] * T if has_comm else None
    single_core = cores == 1

    free_workers: list[list[int]] = [[] for _ in range(nproc)]
    next_worker = [0] * nproc
    free_count = [cores] * nproc

    out_worker = [0] * T
    out_start = [0.0] * T
    out_end = [0.0] * T

    events: list[tuple[float, int, int, int]] = []  # (t, kind, tiebreak, task)
    counter = 0

    def assign(p: int, now: float) -> None:
        nonlocal counter
        q = ready[p]
        while free_count[p] > 0 and len(q) > 0:
            t = q.pop()
            if single_core:
                w = 0
            elif free_workers[p]:
                w = heappop(free_workers[p])
            else:
                w = next_worker[p]
                next_worker[p] += 1
            free_count[p] -= 1
            out_worker[t] = w
            out_start[t] = now
            end = now + dur_l[t]
            out_end[t] = end
            heappush(events, (end, _COMPLETION, counter, t))
            counter += 1

    for t in np.flatnonzero(indeg == 0).tolist():
        ready[tproc_l[t]].push(t, 0.0)
    for p in range(nproc):
        assign(p, 0.0)

    done = 0
    while events:
        now = events[0][0]
        eps = now + _EPS
        touched: set[int] = set()
        # Drain every event at this instant before reassigning.
        while events and events[0][0] <= eps:
            _, kind, _, t = heappop(events)
            if kind == _READY:
                pu = tproc_l[t]
                ready[pu].push(t, ready_at[t])
                touched.add(pu)
                continue
            done += 1
            p = tproc_l[t]
            if not single_core:
                heappush(free_workers[p], out_worker[t])
            free_count[p] += 1
            touched.add(p)
            if has_comm:
                arrival = now + delays_l[t]
                for u in sa_l[sx_l[t] : sx_l[t + 1]]:
                    if tproc_l[u] != p and arrival > ready_at[u]:
                        ready_at[u] = arrival
                    d = indeg_l[u] - 1
                    indeg_l[u] = d
                    if d == 0:
                        if ready_at[u] > eps:
                            heappush(
                                events, (ready_at[u], _READY, counter, u)
                            )
                            counter += 1
                        else:
                            pu = tproc_l[u]
                            ready[pu].push(u, now)
                            touched.add(pu)
            else:
                for u in sa_l[sx_l[t] : sx_l[t + 1]]:
                    d = indeg_l[u] - 1
                    indeg_l[u] = d
                    if d == 0:
                        pu = tproc_l[u]
                        ready[pu].push(u, now)
                        touched.add(pu)
        for p in touched:
            assign(p, now)

    if done != T:
        raise RuntimeError(
            f"deadlock: only {done}/{T} tasks completed (cyclic graph?)"
        )
    return out_worker, out_start, out_end
