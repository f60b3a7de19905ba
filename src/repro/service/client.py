"""Client side of the ``repro serve`` spool protocol.

``ServiceClient`` talks to the same filesystem spool the daemon polls:
submit a :class:`~repro.service.queue.JobRequest` (content-addressed —
identical requests dedupe to one job), poll its typed
:class:`~repro.service.queue.JobStatus`, block until it reaches a
terminal state, and fetch the result — raising the typed
:class:`~repro.resilience.errors.JobFailedError` (with the partial
per-stage provenance intact) when the daemon gave up on it.

The client is a *well-behaved* tenant of an overloaded service:

* :meth:`submit` with ``block=True`` honors the ``retry_after`` hint
  carried by :class:`~repro.resilience.errors.QueueFull` instead of
  hammering a spool that just rejected it;
* :meth:`wait` polls with jittered exponential backoff (base ``poll``,
  factor 2, cap :data:`POLL_CAP`, ±50% jitter) so a thousand clients
  waiting on one spool do not synchronize into a stat() stampede;
* a dead-lettered job surfaces as :class:`JobFailedError` with the
  quarantine diagnosis — and resubmitting it trips the typed
  :class:`~repro.resilience.errors.CircuitOpenError` breaker until an
  operator re-admits or purges the entry.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any

from ..resilience.errors import JobFailedError, QueueFull
from .queue import TERMINAL_STATES, JobRequest, JobStatus, SpoolQueue

__all__ = ["ServiceClient"]

#: Longest wait, in seconds, between two status polls of :meth:`wait`.
POLL_CAP = 2.0


class ServiceClient:
    """Submit / poll / wait / fetch against one spool root."""

    def __init__(
        self,
        spool: str | Path | SpoolQueue,
        *,
        rng: random.Random | None = None,
    ) -> None:
        self.queue = spool if isinstance(spool, SpoolQueue) else SpoolQueue(spool)
        # Own jitter source: deterministic under injection, and never
        # couples to the global random state of the caller.
        self._rng = rng if rng is not None else random.Random()

    # ------------------------------------------------------------------
    def submit(
        self,
        scenario: str,
        *,
        options: dict[str, Any] | None = None,
        through: str = "schedule",
        block: bool = False,
        timeout: float | None = None,
    ) -> str:
        """Enqueue a scenario request; returns its (deduped) job id.

        When admission control rejects the request
        (:class:`QueueFull`), ``block=False`` re-raises immediately;
        ``block=True`` sleeps the server's ``retry_after`` hint
        (jittered) and resubmits until admitted or ``timeout`` elapses
        (then re-raises the last :class:`QueueFull`).
        """
        request = JobRequest(
            scenario=scenario,
            options=dict(options or {}),
            through=through,
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                return self.queue.submit(request)
            except QueueFull as exc:
                if not block:
                    raise
                delay = max(0.01, exc.retry_after) * self._rng.uniform(
                    0.5, 1.5
                )
                if (
                    deadline is not None
                    and time.monotonic() + delay > deadline
                ):
                    raise
                time.sleep(delay)

    def status(self, job_id: str) -> JobStatus | None:
        """Current typed status (``None`` for an unknown id)."""
        return self.queue.status(job_id)

    def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll: float = 0.1,
    ) -> JobStatus:
        """Block until the job is terminal (``done``, ``failed`` or
        ``deadletter``).

        Polls with jittered exponential backoff from ``poll`` up to
        :data:`POLL_CAP` seconds.  Raises :class:`TimeoutError` when
        ``timeout`` elapses first and :class:`KeyError` for an unknown
        job id.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = max(1e-3, poll)
        while True:
            status = self.queue.status(job_id)
            if status is None:
                raise KeyError(f"unknown job id {job_id!r}")
            if status.state in TERMINAL_STATES:
                return status
            sleep = min(delay, POLL_CAP) * self._rng.uniform(0.5, 1.5)
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {status.state} "
                        f"after {timeout:g}s"
                    )
                sleep = min(sleep, remaining)
            time.sleep(sleep)
            delay = min(delay * 2.0, POLL_CAP)

    def result(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll: float = 0.1,
    ) -> dict[str, Any]:
        """The result payload of a completed job (waits if needed).

        Raises :class:`~repro.resilience.errors.JobFailedError` for a
        job that reached the typed ``failed`` or ``deadletter`` state.
        """
        status = self.wait(job_id, timeout=timeout, poll=poll)
        if status.state in ("failed", "deadletter"):
            raise JobFailedError(
                job_id,
                status.error or f"job {status.state}",
                kind=status.error_kind,
                attempts=status.attempts,
                stages=status.stages,
            )
        return dict(status.result or {})

    def run(
        self,
        scenario: str,
        *,
        options: dict[str, Any] | None = None,
        through: str = "schedule",
        timeout: float | None = None,
        block: bool = False,
    ) -> dict[str, Any]:
        """Submit and block for the result (one-call convenience)."""
        job_id = self.submit(
            scenario,
            options=options,
            through=through,
            block=block,
            timeout=timeout,
        )
        return self.result(job_id, timeout=timeout)
