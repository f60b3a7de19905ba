"""The one rule for when a pool of forked worker processes may start.

Two layers hand independent work to such a pool: the bisection tree's
halves (:func:`repro.graph.partition.recursive_bisection`) and each
scheduling round of plan nodes
(:class:`repro.pipeline.scheduler.DagScheduler`).  Both rely on
``fork``: the pool's initializer receives the work's inputs as
``initargs``, which a forked worker inherits copy-on-write, so nothing
is pickled on the way in.  A pool needs more than one worker, a parent
that may have children (a daemonic process, e.g. a serve job child,
may not), and a host that offers ``fork``; anywhere else the caller
runs its work inline.
"""

from __future__ import annotations

import multiprocessing

__all__ = ["can_fork_pool"]


def can_fork_pool(n_jobs: int) -> bool:
    """Whether a pool of ``n_jobs`` forked workers may start here."""
    return (
        n_jobs > 1
        and not multiprocessing.current_process().daemon
        and "fork" in multiprocessing.get_all_start_methods()
    )
