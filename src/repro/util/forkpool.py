"""Where work runs: the one worker-count rule and the one process pool.

Two layers hand independent work to a pool of forked worker processes:
the bisection tree's halves
(:func:`repro.graph.partition.recursive_bisection`) and each scheduling
round of plan nodes (:class:`repro.pipeline.scheduler.DagScheduler`).
Both size it with :func:`resolve_n_jobs`, ask :func:`can_fork_pool`
whether it may start, and build it with :func:`fork_pool`.

Resolution order for the worker count: an explicit value, then the
count pinned for the current thread of execution
(:func:`pinned_n_jobs`: the CLI's ``--jobs`` around a command, a
:class:`~repro.pipeline.Pipeline` or ``run_batch`` around its plan, a
``PartitionConfig.n_jobs`` around its stage), then the ``REPRO_N_JOBS``
environment variable, then one worker per CPU.  The count is never
part of a content address: labels and records are the same for every
count.

A pool relies on ``fork``: :func:`fork_pool` hands the work's inputs
to each worker as initializer arguments, which a forked worker
inherits copy-on-write, so nothing is pickled on the way in; a task
reads them back with :func:`inherited`.  A pool needs more than one
worker, a parent that may have children (a daemonic process, e.g. a
serve job child, may not), and a host that offers ``fork``; anywhere
else the caller runs its work inline.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "can_fork_pool",
    "fork_pool",
    "inherited",
    "pinned_n_jobs",
    "resolve_executor",
    "resolve_n_jobs",
]

#: Valid pool choices for the bisection tree: ``"auto"`` pools large
#: graphs only, ``"process"`` pools at any size.
_EXECUTORS = ("auto", "process")

#: Count pinned by :func:`pinned_n_jobs` for the current thread of
#: execution only.
_pinned: ContextVar[int | None] = ContextVar("repro_n_jobs", default=None)

#: What the pool this worker serves was forked with, set by
#: :func:`_inherit` in each worker (empty in a process that is not one).
_INHERITED: tuple[Any, ...] = ()


@contextmanager
def pinned_n_jobs(n: int | None) -> Iterator[None]:
    """Pin the count :func:`resolve_n_jobs` returns for an unset
    argument, for this thread of execution, inside the block; ``None``
    leaves the current pin in place."""
    if n is None:
        yield
        return
    token = _pinned.set(n)
    try:
        yield
    finally:
        _pinned.reset(token)


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve the effective worker count (>= 1).

    ``-1`` means one worker per CPU, and so does nothing set at all;
    an unparsable ``REPRO_N_JOBS`` warns and falls back to that
    default rather than killing a campaign.
    """
    if n_jobs is None:
        n_jobs = _pinned.get()
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


def can_fork_pool(n_jobs: int) -> bool:
    """Whether a pool of ``n_jobs`` forked workers may start here."""
    return (
        n_jobs > 1
        and not multiprocessing.current_process().daemon
        and "fork" in multiprocessing.get_all_start_methods()
    )


def _inherit(*objects: Any) -> None:
    global _INHERITED
    _INHERITED = objects


def inherited() -> tuple[Any, ...]:
    """The objects the pool this worker serves was forked with."""
    return _INHERITED


def fork_pool(workers: int, *objects: Any) -> ProcessPoolExecutor:
    """A pool of ``workers`` processes forked from this one, each of
    which inherits ``objects`` (read back with :func:`inherited`).

    Call it only where :func:`can_fork_pool` allows; the workers start
    at the first submit.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_inherit,
        initargs=objects,
    )
