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
One loop, :func:`_event_loop`, runs all six policies with and without
a communication model.  The seed engine (kept verbatim as the
differential oracle in :mod:`repro.flusim.reference`) pays a method
call per ready-queue ``push``/``pop``/``len`` and a closure call per
refill; here each process's ready queue is a plain container held
inside the loop, and the refill is inlined as one ``while free and
queue`` pop loop whose only branch is the discipline:

* ``eager`` without a comm model: a deque.  Every push carries the
  current clock, so FIFO-by-(ready time, arrival) is insertion order
  and the oracle's heap is pure overhead;
* ``cp``/``sjf``/``ljf``, and ``eager`` with a comm model (a message
  arrival inside the drain epsilon can carry a later ready time than a
  push after it): a heap of ``(key, seq, task)``, the key being the
  negated static priority or the ready time;
* ``lifo``: a stack; ``random``: a swap-pop driven by the same seeded
  generator the oracle's queues share.

Events are ``(time, seq, task)``.  Under a comm model a message arrival
adds :data:`_READY` to its ``seq``, which orders it after every
completion at the same instant, as the oracle's ``(time, kind, seq)``
does; a sentinel at infinity keeps the heap from running empty.
Per-event state (in-degrees, CSR adjacency, durations, ready times)
lives in Python lists, whose element access is several times cheaper
than NumPy scalar indexing, cross-process delays are one vectorized
α + size/β evaluation per task, and end times are formed once, as
``start + duration``, after the loop.

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
from collections import deque

import numpy as np

from ..taskgraph.dag import TaskDAG
from .cluster import ClusterConfig
from .commmodel import CommModel
from .schedulers import SCHEDULERS
from .trace import Trace

__all__ = ["simulate"]

#: Added to a message arrival's event ``seq``: above every completion's.
_READY = 1 << 62
_EPS = 1e-15
_END = float("inf")

# Ready-queue disciplines of :func:`_event_loop`.
_FIFO, _HEAP, _STACK, _RANDOM = range(4)


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
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}")
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

    # Heap keys: the oracle's PriorityQueue orders by -priority, with
    # priority = bottom level (cp), cost (ljf) or -cost (sjf).
    keys = None
    if scheduler == "cp":
        keys = (-np.asarray(dag.critical_path()[1], np.float64)).tolist()
    elif scheduler == "ljf":
        keys = (-np.asarray(dag.tasks.cost, np.float64)).tolist()
    elif scheduler == "sjf":
        keys = np.asarray(dag.tasks.cost, np.float64).tolist()
    if keys is not None or (scheduler == "eager" and comm is not None):
        mode = _HEAP
    else:
        mode = {"eager": _FIFO, "lifo": _STACK, "random": _RANDOM}[scheduler]

    # Per-task cross-process delay, precomputed in one vectorized pass
    # (the seed engine re-evaluated comm.delay per dependency edge).
    delays = None
    if comm is not None:
        nobj = dag.tasks.num_objects
        if comm.bandwidth == float("inf"):
            delays = np.full(T, comm.latency, dtype=np.float64)
        else:
            delays = comm.latency + nobj / comm.bandwidth

    sx, sa = dag.successors_csr()
    out_worker, out_start, out_end = _event_loop(
        nproc, cluster.cores, tproc, durations, dag.in_degrees(), sx, sa,
        mode, keys,
        np.random.default_rng(seed) if mode == _RANDOM else None, delays,
    )

    return Trace(
        process=tproc.astype(np.int32).copy(),
        worker=out_worker,
        start=out_start,
        end=out_end,
        num_processes=nproc,
        cores_per_process=cluster.cores,
    )


def _event_loop(
    nproc: int,
    cores: int,
    tproc: np.ndarray,
    durations: np.ndarray,
    indeg: np.ndarray,
    sx: np.ndarray,
    sa: np.ndarray,
    mode: int,
    keys: list[float] | None,
    rng: np.random.Generator | None,
    delays: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """List-schedule the DAG: ``(worker, start, end)`` per task.

    ``mode`` is the ready-queue discipline; ``keys`` the static heap
    key per task (``None``: the ready time is the key).
    """
    heappush = heapq.heappush
    heappop = heapq.heappop
    T = len(durations)
    sx_l = sx.tolist()
    sa_l = sa.tolist()
    indeg_l = indeg.tolist()
    tproc_l = tproc.tolist()
    dur_l = durations.tolist()
    has_comm = delays is not None
    delays_l = delays.tolist() if has_comm else None
    ready_at = [0.0] * T if has_comm else None
    heap = mode == _HEAP
    single_core = cores == 1

    ready: list = [
        deque() if mode == _FIFO else [] for _ in range(nproc)
    ]
    free_workers: list[list[int]] = [[] for _ in range(nproc)]
    next_worker = [0] * nproc
    free_count = [cores] * nproc

    # One core per process: every worker id is 0, so none is stored.
    out_worker = None if single_core else [0] * T
    out_start = [0.0] * T

    # (time, seq, task), over a sentinel that outlasts every event.
    events: list[tuple[float, int, int]] = [(_END, 0, -1)]
    seq = 0  # events pushed
    qseq = 0  # heap ready-queue pushes
    arrivals = 0  # message-arrival events among the ``seq``

    for t in np.flatnonzero(indeg == 0).tolist():
        if heap:
            heappush(
                ready[tproc_l[t]],
                (keys[t] if keys is not None else 0.0, qseq, t),
            )
            qseq += 1
        else:
            ready[tproc_l[t]].append(t)

    now = 0.0
    touched = range(nproc)
    while True:
        # Refill the free cores of every process an event touched.
        for p in touched:
            free = free_count[p]
            q = ready[p]
            while free and q:
                if mode == _FIFO:
                    t = q.popleft()
                elif mode == _HEAP:
                    t = heappop(q)[2]
                elif mode == _STACK:
                    t = q.pop()
                else:
                    i = int(rng.integers(len(q)))
                    q[i], q[-1] = q[-1], q[i]
                    t = q.pop()
                free -= 1
                if not single_core:
                    if free_workers[p]:
                        out_worker[t] = heappop(free_workers[p])
                    else:
                        out_worker[t] = next_worker[p]
                        next_worker[p] += 1
                out_start[t] = now
                heappush(events, (now + dur_l[t], seq, t))
                seq += 1
            free_count[p] = free

        # Drain every event at this instant before refilling.
        now, s, t = heappop(events)
        if t < 0:
            break
        eps = now + _EPS
        touched = set()
        while True:
            if s >= _READY:
                pu = tproc_l[t]
                if heap:
                    heappush(
                        ready[pu],
                        (keys[t] if keys is not None else ready_at[t], qseq, t),
                    )
                    qseq += 1
                else:
                    ready[pu].append(t)
                touched.add(pu)
            else:
                p = tproc_l[t]
                if single_core:
                    free_count[p] = 1
                else:
                    heappush(free_workers[p], out_worker[t])
                    free_count[p] += 1
                touched.add(p)
                if has_comm:
                    arrival = now + delays_l[t]
                    for u in sa_l[sx_l[t] : sx_l[t + 1]]:
                        if tproc_l[u] != p and arrival > ready_at[u]:
                            ready_at[u] = arrival
                        d = indeg_l[u] - 1
                        if d:
                            indeg_l[u] = d
                            continue
                        if ready_at[u] > eps:
                            heappush(events, (ready_at[u], _READY + seq, u))
                            seq += 1
                            arrivals += 1
                            continue
                        pu = tproc_l[u]
                        if heap:
                            heappush(
                                ready[pu],
                                (keys[u] if keys is not None else now, qseq, u),
                            )
                            qseq += 1
                        else:
                            ready[pu].append(u)
                        touched.add(pu)
                else:
                    for u in sa_l[sx_l[t] : sx_l[t + 1]]:
                        d = indeg_l[u] - 1
                        if d:
                            indeg_l[u] = d
                            continue
                        pu = tproc_l[u]
                        if heap:
                            heappush(ready[pu], (keys[u], qseq, u))
                            qseq += 1
                        else:
                            ready[pu].append(u)
                        touched.add(pu)
            if events[0][0] > eps:
                break
            _, s, t = heappop(events)

    if seq - arrivals != T:
        raise RuntimeError(
            f"deadlock: only {seq - arrivals}/{T} tasks completed "
            "(cyclic graph?)"
        )
    start = np.asarray(out_start, dtype=np.float64)
    worker = (
        np.zeros(T, dtype=np.int32)
        if single_core
        else np.asarray(out_worker, dtype=np.int32)
    )
    # The loop's ``now + duration``, element for element.
    return worker, start, start + durations
