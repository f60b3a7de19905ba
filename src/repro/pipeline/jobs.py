"""Single resolution point for the partitioner worker count.

Historically ``REPRO_N_JOBS`` was consulted independently by the
experiment harness, the CLI and the graph partitioner; this module is
now the one place it is resolved, and the partition stage resolves it
when it runs — the worker count is never part of a content address,
because the labels do not depend on it.

Resolution order for the worker count: an explicit value (e.g. the
CLI's ``--jobs``), then the count a running
:class:`~repro.pipeline.Pipeline` pinned for its own chain
(:func:`pinned_n_jobs`), then the process-wide default installed with
:func:`set_default_n_jobs`, then the ``REPRO_N_JOBS`` environment
variable, then one worker per CPU.  The partitioner runs small graphs
inline and larger ones on a pool of processes forked from the caller,
which inherit the graph (see
:func:`repro.graph.partition.recursive_bisection`);
:func:`resolve_executor` only validates an explicit pool choice.

The same resolution sizes a sweep's plan-node pool:
:func:`~repro.pipeline.runner.run_batch` resolves its ``n_jobs`` here,
while :class:`~repro.pipeline.Pipeline` runs its one chain inline and
gives the CPUs to the bisection tree.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

__all__ = [
    "resolve_n_jobs",
    "set_default_n_jobs",
    "pinned_n_jobs",
    "resolve_executor",
]

#: Valid pool-backend names, as understood by
#: :func:`repro.graph.partition.recursive_bisection`.
_EXECUTORS = ("auto", "process")

#: Process-wide default installed by the CLI; ``None`` falls through
#: to the ``REPRO_N_JOBS`` environment variable.
_default_n_jobs: int | None = None

#: Count pinned by :func:`pinned_n_jobs` for the current thread of
#: execution only.
_pinned: ContextVar[int | None] = ContextVar("repro_n_jobs", default=None)


def set_default_n_jobs(n: int | None) -> None:
    """Install a process-wide worker-count default (``None`` reverts
    to ``REPRO_N_JOBS`` / one worker per CPU)."""
    global _default_n_jobs
    _default_n_jobs = n


@contextmanager
def pinned_n_jobs(n: int | None) -> Iterator[None]:
    """Pin the worker count :func:`resolve_n_jobs` returns for an
    unset argument, for this thread of execution, inside the block."""
    token = _pinned.set(n)
    try:
        yield
    finally:
        _pinned.reset(token)


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve the effective partitioner worker count (>= 1).

    ``-1`` means one worker per CPU, and so does nothing set at all;
    an unparsable ``REPRO_N_JOBS`` warns and falls back to that
    default rather than killing a campaign.
    """
    if n_jobs is None:
        n_jobs = _pinned.get()
    if n_jobs is None:
        n_jobs = _default_n_jobs
    if n_jobs is None:
        env = os.environ.get("REPRO_N_JOBS", "").strip()
        try:
            n_jobs = int(env) if env else -1
        except ValueError:
            warnings.warn(
                f"invalid REPRO_N_JOBS value {env!r} (expected an "
                "integer); falling back to one worker per CPU",
                RuntimeWarning,
                stacklevel=2,
            )
            n_jobs = -1
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, n_jobs)


def resolve_executor(executor: str | None = None) -> str:
    """Validate a pool choice for
    :func:`repro.graph.partition.recursive_bisection`: ``None`` reads
    as ``"auto"``, and anything but ``"auto"`` or ``"process"`` raises
    :class:`ValueError`."""
    executor = (executor or "auto").lower()
    if executor not in _EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r} (expected one of {_EXECUTORS})"
        )
    return executor
