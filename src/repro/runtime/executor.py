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
* with ``fail_fast=False``, a permanently failed task marks itself
  failed, its transitive dependents are *skipped*, and the execution
  completes with the damage reported in
  :attr:`ExecutionResult.health` instead of raising.

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
    "RetryPolicy",
    "ExecutionHealth",
    "ExecutionResult",
    "ThreadedExecutor",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor handles task failures.

    Parameters
    ----------
    max_retries:
        Retry budget *per task* (0 = never retry).
    backoff:
        Base backoff in seconds; retry ``k`` sleeps
        ``backoff * 2**(k-1)`` (capped at ``backoff_cap``) before
        re-running.
    retry_on:
        Exception classes considered transient.  Anything else — or a
        task that exhausts its budget — is a permanent failure.
    fail_fast:
        ``True`` (default): the first permanent failure aborts the
        execution and ``run()`` raises it (the pre-resilience
        semantics).  ``False``: the task is marked failed, its
        transitive dependents are skipped, and the execution completes
        with the damage in :attr:`ExecutionResult.health`.
    """

    max_retries: int = 2
    backoff: float = 0.0
    backoff_cap: float = 1.0
    retry_on: tuple[type[BaseException], ...] = (TransientError,)
    fail_fast: bool = True

    def delay(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based)."""
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * 2.0 ** (retry - 1), self.backoff_cap)


@dataclass
class ExecutionHealth:
    """What it cost to (try to) complete an execution.

    ``wasted_seconds`` is per process: time burnt on failed attempts
    (including the hung time of a timed-out task), excluding backoff
    sleeps.
    """

    retries: int = 0
    failed: list[int] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)
    timed_out: list[int] = field(default_factory=list)
    wasted_seconds: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64)
    )
    errors: dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No task failed, was skipped, or timed out."""
        return not (self.failed or self.skipped or self.timed_out)

    @property
    def total_wasted(self) -> float:
        """Total wasted seconds across processes."""
        return float(self.wasted_seconds.sum())

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"retries={self.retries} failed={len(self.failed)} "
            f"skipped={len(self.skipped)} timed_out={len(self.timed_out)} "
            f"wasted={self.total_wasted:.3f}s"
        )


@dataclass
class ExecutionResult:
    """Outcome of a threaded execution.

    Attributes
    ----------
    trace:
        Per-task placement/timing (seconds since execution start),
        compatible with every FLUSIM analysis helper.  Failed/skipped
        tasks (``fail_fast=False`` only) have zeroed entries.
    elapsed:
        Wall-clock of the whole execution.
    health:
        Retry/failure accounting for the run.
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
        Optional :class:`RetryPolicy`; ``None`` keeps the historical
        fail-fast, no-retry behaviour.
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
        permanent worker failure unless ``retry.fail_fast`` is
        ``False`` (a watchdog timeout always raises — the hung thread
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
        poisoned = bytearray(T)  # transitively downstream of a failure
        retries = 0
        failed: list[int] = []
        skipped: list[int] = []
        timed_out: list[int] = []
        errors: dict[int, str] = {}
        wasted = np.zeros(self.num_processes, dtype=np.float64)
        running: dict[tuple[int, int], tuple[int, float]] = {}
        stuck: set[tuple[int, int]] = set()

        for t in range(T):
            if indeg[t] == 0:
                queues[tproc[t]].append(t)

        t0 = time.perf_counter()

        def finish_locked(task: int, ok: bool) -> set[int]:
            """Retire ``task`` (lock held): decrement successors,
            cascade skips through failed subtrees, return the processes
            that received new ready work."""
            nonlocal remaining
            woken: set[int] = set()
            stack: list[tuple[int, bool]] = [(task, ok)]
            while stack:
                v, vok = stack.pop()
                remaining -= 1
                for u in sa[sx[v] : sx[v + 1]]:
                    u = int(u)
                    if not vok:
                        poisoned[u] = 1
                    indeg[u] -= 1
                    if indeg[u] == 0:
                        if poisoned[u]:
                            skipped.append(u)
                            stack.append((u, False))
                        else:
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
                                policy is not None
                                and isinstance(exc, policy.retry_on)
                                and attempts[t] < policy.max_retries
                            ):
                                attempts[t] += 1
                                retries += 1
                                delay = policy.delay(attempts[t])
                            else:
                                errors[t] = f"{type(exc).__name__}: {exc}"
                                if policy is None or policy.fail_fast:
                                    failure.append(exc)
                                    for c in conditions:
                                        c.notify_all()
                                    return
                                failed.append(t)
                                woken = finish_locked(t, ok=False)
                                notify_locked(p, woken)
                                break  # on to the next queued task
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
                        woken = finish_locked(t, ok=True)
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
                            exc = TaskTimeoutError(t, p, w, deadline)
                            timed_out.append(t)
                            errors[t] = str(exc)
                            wasted[p] += now - since
                            stuck.add((p, w))
                            failure.append(exc)
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

        health = ExecutionHealth(
            retries=retries,
            failed=sorted(failed),
            skipped=sorted(skipped),
            timed_out=sorted(timed_out),
            wasted_seconds=wasted,
            errors=errors,
        )
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
        return ExecutionResult(trace=trace, elapsed=elapsed, health=health)
