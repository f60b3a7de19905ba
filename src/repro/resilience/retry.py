"""Retry budget and backoff, shared by the threaded executor
(:mod:`repro.runtime.executor`, per task) and the serve daemon
(:mod:`repro.service.daemon`, per job).

Standard library only, so the daemon reaches it without importing the
executor's NumPy and task-graph stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TransientError

__all__ = ["RETRY_ON", "BACKOFF_CAP", "RetryPolicy"]


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
