"""Exception hierarchy of the resilience layer.

The executor, the physics guards, the checkpoint store and the
partitioner contracts each signal failure through a dedicated class so
callers can distinguish *retry this* (:class:`TransientError`), *this
worker is gone* (:class:`TaskTimeoutError`), *the physics went bad —
roll back* (:class:`PhysicsGuardError`), *this checkpoint is unusable*
(:class:`CheckpointError`) and *the partitioner could not honour its
output contract* (:class:`PartitionQualityError`).
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "TransientError",
    "TaskTimeoutError",
    "PhysicsGuardError",
    "CheckpointError",
    "JobFailedError",
    "QueueFull",
    "CircuitOpenError",
    "PartitionError",
    "PartitionInternalError",
    "PartitionQualityError",
]


class ResilienceError(RuntimeError):
    """Base class of all resilience-layer failures."""


class TransientError(ResilienceError):
    """A task failure that is expected to succeed on retry.

    It is what the threaded executor retries
    (:data:`repro.runtime.executor.RETRY_ON`); fault injection raises it for its simulated transient failures, and real
    kernels may raise it for recoverable conditions (e.g. a resource
    temporarily unavailable).
    """


class TaskTimeoutError(ResilienceError):
    """A task exceeded the executor's watchdog deadline.

    The hung worker thread cannot be reclaimed (Python threads are not
    killable), so the execution is aborted with this error instead of
    stalling forever; the campaign driver treats it as a rollback
    trigger.
    """

    def __init__(
        self, task: int, process: int, worker: int, deadline: float
    ) -> None:
        self.task = int(task)
        self.process = int(process)
        self.worker = int(worker)
        self.deadline = float(deadline)
        super().__init__(
            f"task {task} exceeded the {deadline:g}s watchdog deadline "
            f"on process {process} worker {worker}; aborting execution"
        )


class PhysicsGuardError(ResilienceError):
    """The physics guards kept failing after exhausting rollbacks.

    Carries the final :class:`~repro.resilience.guards.GuardReport`
    violations so the campaign's last diagnostic is preserved.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        self.violations = list(violations or [])
        super().__init__(message)


class CheckpointError(ResilienceError):
    """A checkpoint could not be written, found, or safely loaded."""


class JobFailedError(ResilienceError):
    """A ``repro serve`` job exhausted its retries (typed JobFailed).

    Carries the terminal diagnosis — ``job_id``, the failure ``kind``
    (``"WorkerDeath"``, ``"StageTimeout"``, an exception class name,
    ...), the attempt count and the *partial provenance*: the
    per-stage records the job streamed before dying, so a post-mortem
    sees exactly how far each attempt got.
    """

    def __init__(
        self,
        job_id: str,
        message: str,
        *,
        kind: str | None = None,
        attempts: int = 0,
        stages: list[dict] | None = None,
    ) -> None:
        self.job_id = str(job_id)
        self.kind = kind
        self.attempts = int(attempts)
        self.stages = list(stages or [])
        done = ", ".join(s.get("stage", "?") for s in self.stages)
        super().__init__(
            f"job {job_id} failed after {attempts} attempt(s)"
            + (f" [{kind}]" if kind else "")
            + f": {message}"
            + (f" (stages completed: {done})" if done else "")
        )


class QueueFull(ResilienceError):
    """The spool rejected a submission — admission control tripped.

    Carries the ``retry_after`` hint (seconds) a well-behaved client
    sleeps before resubmitting (:meth:`ServiceClient.submit` with
    ``block=True`` honors it), plus the tripped ``reason`` (``"depth"``
    or ``"bytes"``), the observed load and the configured limit.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float = 1.0,
        reason: str = "depth",
        observed: int = 0,
        limit: int = 0,
    ) -> None:
        self.retry_after = float(retry_after)
        self.reason = str(reason)
        self.observed = int(observed)
        self.limit = int(limit)
        super().__init__(
            f"{message} (retry after {self.retry_after:g}s)"
        )


class CircuitOpenError(ResilienceError):
    """A dead-lettered request was resubmitted while its breaker is
    open.

    The per-digest circuit breaker fast-fails resubmissions of a
    scenario that was dead-lettered (poison job: exhausted retries, or
    deterministic worker kills at one stage) until an operator closes
    it with ``repro serve deadletter retry`` (re-admit) or ``purge``
    (discard the evidence).  Carries the ``job_id`` and the dead-letter
    ``entry`` path so the error names exactly what to inspect.
    """

    def __init__(
        self, job_id: str, entry: str, *, reason: str | None = None
    ) -> None:
        self.job_id = str(job_id)
        self.entry = str(entry)
        self.reason = reason
        super().__init__(
            f"circuit open for job {job_id}: dead-lettered at {entry}"
            + (f" ({reason})" if reason else "")
            + "; close it with 'repro serve deadletter retry|purge'"
        )


class PartitionError(ResilienceError):
    """Base class of partitioner contract failures."""


class PartitionInternalError(PartitionError):
    """An internal partitioner invariant was violated.

    Replaces the bare ``assert`` statements in the hot kernels (greedy
    graph growing trial selection, incremental edge-cut tracking) so
    the safety net survives ``python -O``, which strips asserts.
    Hitting this is a bug in the partitioner, not in the caller's
    input.
    """


class PartitionQualityError(PartitionError):
    """A partition violated its output contract under ``strict=True``.

    Carries the list of contract ``violations`` (human-readable, one
    per failed check) and the ``provenance`` of the offending result so
    campaign drivers can log exactly which rung of the pipeline
    produced it.
    """

    def __init__(
        self,
        message: str,
        *,
        violations: list[str] | None = None,
        provenance: str = "primary",
    ) -> None:
        self.violations = list(violations or [])
        self.provenance = str(provenance)
        super().__init__(message)
