"""The ``repro serve`` job service: an overload-safe scenario daemon
over the cross-process artifact store.

Three layers, no hard dependencies beyond the standard library:

* :mod:`repro.service.queue` — a crash-safe filesystem spool
  (``pending/ → running/ → done|failed|deadletter/``) with
  content-addressed job ids, atomic rename-based claiming, typed
  :class:`~repro.service.queue.JobStatus` records, bounded admission
  checked by each submitter
  (:class:`~repro.service.queue.QueueLimits` →
  :class:`~repro.resilience.errors.QueueFull` with a retry-after
  hint), a dead-letter quarantine with forensic bundles, and the
  per-digest circuit breaker
  (:class:`~repro.resilience.errors.CircuitOpenError`);
* :mod:`repro.service.daemon` — the long-running worker: claims jobs
  in batches, runs each batch as one merged stage plan in a supervised
  child process (shared prefixes execute once; a worker death is a
  recoverable event, not a daemon crash), retries with the runtime's
  :class:`~repro.resilience.retry.RetryPolicy` backoff, enforces a
  per-stage progress watchdog, dead-letters poison jobs, drains
  cleanly on SIGTERM/SIGINT (finish-or-requeue, liveness/readiness
  heartbeats), and degrades gracefully under the
  :class:`~repro.resilience.sentinel.ResourceSentinel`'s pressure
  verdicts on available memory and free disk;
* :mod:`repro.service.client` — submit / poll / wait / fetch, with
  jittered-backoff polling and retry-after-honoring submission.

Deduplication is by content address twice over: identical requests
collapse to one job id in the spool, and distinct jobs sharing a chain
prefix share the underlying artifacts through the store's per-digest
claims — N concurrent workers never recompute one digest.
"""

from .client import ServiceClient
from .daemon import ServeDaemon, read_health
from .queue import (
    TERMINAL_STATES,
    JobRequest,
    JobStatus,
    QueueLimits,
    SpoolQueue,
    stale_spool_files,
    sweep_stale_spool,
)

__all__ = [
    "JobRequest",
    "JobStatus",
    "QueueLimits",
    "SpoolQueue",
    "TERMINAL_STATES",
    "ServeDaemon",
    "ServiceClient",
    "read_health",
    "stale_spool_files",
    "sweep_stale_spool",
]
