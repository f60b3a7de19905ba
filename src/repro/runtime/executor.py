"""A StarPU-like threaded task executor.

FLUSEPA delegates task scheduling to StarPU; FLUSIM only *simulates*
schedules.  This module closes the loop with a real (if small) runtime:
the task graph is executed on actual worker threads, with the paper's
placement rule — every task runs inside the worker group ("process")
that owns its extraction domain — and dependencies enforced by
in-degree countdown.  NumPy kernels release the GIL for the bulk of
their work, so multi-worker runs genuinely overlap.

The executor is hardened for long campaigns:

* a :class:`RetryPolicy` re-runs tasks that fail with a *transient*
  error (exponential backoff, bounded attempts);
* a watchdog deadline converts a hung task into a named
  :class:`~repro.resilience.errors.TaskTimeoutError` instead of a
  silent stall (the hung daemon thread is abandoned — Python threads
  cannot be killed);
* the first permanent failure (a non-transient error, or a task that
  exhausts its retries) aborts the execution and ``run()`` raises it;
  recovery is the caller's (the campaign driver rolls back).

Retry safety: a retried task re-runs its body from the top, so task
bodies must not have published partial effects before failing.  The
solver kernels qualify — each FACE task has a single deposit point at
the end of its body — and injected transient faults
(:class:`~repro.resilience.faults.FaultPlan`) fire *before* the body
by construction.

This powers the strongest form of the production experiment: the
SC_OC/MC_TL comparison measured as *real parallel wall-clock*, not a
replay (see ``repro.experiments.runtime_validation``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..flusim.trace import Trace
from ..resilience.errors import TaskTimeoutError, TransientError
from ..taskgraph.dag import TaskDAG

__all__ = [
    "RETRY_ON",
    "BACKOFF_CAP",
    "RetryPolicy",
    "ExecutionHealth",
    "ExecutionResult",
    "ThreadedExecutor",
]


#: Exceptions a task may be retried on.  Anything else — or a task
#: that exhausts its budget — is a permanent failure.
RETRY_ON: tuple[type[BaseException], ...] = (TransientError,)

#: Longest backoff sleep before one retry, in seconds.
BACKOFF_CAP = 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and how patiently, the executor retries a task.

    Parameters
    ----------
    max_retries:
        Retry budget *per task* (0 = never retry).
    backoff:
        Base backoff in seconds; retry ``k`` sleeps
        ``backoff * 2**(k-1)`` (capped at :data:`BACKOFF_CAP`) before
        re-running.
    """

    max_retries: int = 2
    backoff: float = 0.0

    def delay(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based)."""
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * 2.0 ** (retry - 1), BACKOFF_CAP)


@dataclass
class ExecutionHealth:
    """What it cost to complete an execution.

    ``wasted_seconds`` is per process: time burnt on failed attempts
    that were retried, excluding backoff sleeps.
    """

    retries: int = 0
    wasted_seconds: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )

    @property
    def total_wasted(self) -> float:
        """Total wasted seconds across processes."""
        return float(self.wasted_seconds.sum())


@dataclass
class ExecutionResult:
    """Outcome of a threaded execution.

    Attributes
    ----------
    trace:
        Per-task placement/timing (seconds since execution start),
        compatible with every FLUSIM analysis helper.
    elapsed:
        Wall-clock of the whole execution.
    health:
        Retry accounting for the run.
    """

    trace: Trace
    elapsed: float
    health: ExecutionHealth = field(default_factory=ExecutionHealth)


class ThreadedExecutor:
    """Execute a :class:`TaskDAG` on worker threads.

    Parameters
    ----------
    dag:
        The task graph; ``dag.tasks.process`` assigns each task to a
        worker group.
    num_processes:
        Number of worker groups (emulated MPI processes).
    cores_per_process:
        Worker threads per group.
    task_fn:
        ``task_fn(task_id)`` runs the task's body; it is called from
        worker threads, so it must only touch disjoint data per task
        (which Algorithm 1's dependency structure guarantees for the
        solver kernels).
    retry:
        Optional :class:`RetryPolicy`; ``None`` never retries.
    watchdog:
        Optional per-task deadline in seconds.  A task running longer
        aborts the execution with a
        :class:`~repro.resilience.errors.TaskTimeoutError`; its worker
        thread is abandoned (daemon), so the caller must treat the
        shared state as suspect and roll back to a fresh copy (see
        :meth:`~repro.solver.lts.LTSState.copy`).
    """

    def __init__(
        self,
        dag: TaskDAG,
        num_processes: int,
        cores_per_process: int,
        task_fn: Callable[[int], None],
        *,
        retry: RetryPolicy | None = None,
        watchdog: float | None = None,
    ) -> None:
        if num_processes < 1 or cores_per_process < 1:
            raise ValueError("need at least one process and one core")
        if watchdog is not None and watchdog <= 0:
            raise ValueError("watchdog deadline must be positive")
        tproc = dag.tasks.process
        if dag.num_tasks and (
            tproc.min() < 0 or tproc.max() >= num_processes
        ):
            raise ValueError("task process out of range")
        self.dag = dag
        self.num_processes = num_processes
        self.cores_per_process = cores_per_process
        self.task_fn = task_fn
        self.retry = retry
        self.watchdog = watchdog

    def run(self) -> ExecutionResult:
        """Execute every task once, respecting dependencies.

        Returns an :class:`ExecutionResult`.  Raises the first
        permanent worker failure or watchdog timeout (the hung thread
        cannot be reclaimed, so the execution cannot be trusted).
        """
        dag = self.dag
        T = dag.num_tasks
        indeg = dag.in_degrees().tolist()
        sx, sa = dag.successors_csr()
        tproc = dag.tasks.process
        policy = self.retry

        lock = threading.Lock()
        conditions = [threading.Condition(lock) for _ in range(self.num_processes)]
        queues: list[deque[int]] = [deque() for _ in range(self.num_processes)]
        remaining = T
        failure: list[BaseException] = []

        start = np.zeros(T, dtype=np.float64)
        end = np.zeros(T, dtype=np.float64)
        worker_of = np.zeros(T, dtype=np.int32)

        # Health accounting (all mutated under ``lock``).
        attempts = [0] * T
        retries = 0
        wasted = np.zeros(self.num_processes, dtype=np.float64)
        running: dict[tuple[int, int], tuple[int, float]] = {}
        stuck: set[tuple[int, int]] = set()

        for t in range(T):
            if indeg[t] == 0:
                queues[tproc[t]].append(t)

        t0 = time.perf_counter()

        def finish_locked(task: int) -> set[int]:
            """Retire ``task`` (lock held): decrement successors and
            return the processes that received new ready work."""
            nonlocal remaining
            woken: set[int] = set()
            remaining -= 1
            for u in sa[sx[task] : sx[task + 1]]:
                u = int(u)
                indeg[u] -= 1
                if indeg[u] == 0:
                    pu = int(tproc[u])
                    queues[pu].append(u)
                    woken.add(pu)
            return woken

        def notify_locked(p: int, woken: set[int]) -> None:
            if remaining <= 0:
                for c in conditions:
                    c.notify_all()
            else:
                for pu in woken:
                    conditions[pu].notify()
                conditions[p].notify()

        def worker(p: int, w: int) -> None:
            nonlocal remaining, retries
            cond = conditions[p]
            q = queues[p]
            key = (p, w)
            while True:
                with lock:
                    while not q and remaining > 0 and not failure:
                        cond.wait(timeout=0.05)
                    if failure or (remaining <= 0 and not q):
                        return
                    if not q:
                        continue
                    t = q.popleft()
                while True:  # attempt loop
                    ts = time.perf_counter() - t0
                    with lock:
                        if failure:
                            return
                        running[key] = (t, time.monotonic())
                    delay = 0.0
                    try:
                        self.task_fn(t)
                    except BaseException as exc:
                        burnt = time.perf_counter() - t0 - ts
                        with lock:
                            running.pop(key, None)
                            wasted[p] += burnt
                            if failure:
                                return  # execution already aborted
                            if (
                                policy is None
                                or not isinstance(exc, RETRY_ON)
                                or attempts[t] >= policy.max_retries
                            ):
                                failure.append(exc)
                                for c in conditions:
                                    c.notify_all()
                                return
                            attempts[t] += 1
                            retries += 1
                            delay = policy.delay(attempts[t])
                        if delay > 0.0:
                            time.sleep(delay)
                        continue  # retry the same task
                    te = time.perf_counter() - t0
                    with lock:
                        running.pop(key, None)
                        if failure:
                            return
                        start[t] = ts
                        end[t] = te
                        worker_of[t] = w
                        woken = finish_locked(t)
                        notify_locked(p, woken)
                    break

        def watchdog_thread() -> None:
            deadline = float(self.watchdog)  # type: ignore[arg-type]
            interval = max(min(0.05, deadline / 4.0), 0.005)
            while True:
                with lock:
                    if remaining <= 0 or failure:
                        return
                    now = time.monotonic()
                    for (p, w), (t, since) in running.items():
                        if now - since > deadline:
                            stuck.add((p, w))
                            failure.append(
                                TaskTimeoutError(t, p, w, deadline)
                            )
                            for c in conditions:
                                c.notify_all()
                            return
                time.sleep(interval)

        threads = {
            (p, w): threading.Thread(
                target=worker, args=(p, w), daemon=True,
                name=f"repro-worker-p{p}w{w}",
            )
            for p in range(self.num_processes)
            for w in range(self.cores_per_process)
        }
        for th in threads.values():
            th.start()
        monitor = None
        if self.watchdog is not None:
            monitor = threading.Thread(
                target=watchdog_thread, daemon=True, name="repro-watchdog"
            )
            monitor.start()
        for key, th in threads.items():
            while th.is_alive():
                th.join(timeout=0.1)
                with lock:
                    if key in stuck:
                        break  # abandon the hung daemon thread
        if monitor is not None:
            monitor.join()
        elapsed = time.perf_counter() - t0

        if failure:
            raise failure[0]
        if remaining != 0:
            raise RuntimeError(
                f"executor finished with {remaining} tasks pending "
                "(cyclic graph?)"
            )
        trace = Trace(
            process=tproc.astype(np.int32).copy(),
            worker=worker_of,
            start=start,
            end=end,
            num_processes=self.num_processes,
            cores_per_process=self.cores_per_process,
        )
        health = ExecutionHealth(retries=retries, wasted_seconds=wasted)
        return ExecutionResult(trace=trace, elapsed=elapsed, health=health)
