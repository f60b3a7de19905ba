"""Where work runs: the one worker-count rule, forked subtrees and the
one process pool.

Two layers hand independent work to processes forked from this one.
The bisection tree (:func:`repro.graph.partition.recursive_bisection`)
is fork-join: its root runs in a child started by :func:`fork`, and a
node whose process still has worker budget forks a child for its
second subtree, which inherits what it needs at fork and sends back one
array through a pipe (:meth:`Forked.join`).  Each scheduling round of
plan nodes (:class:`repro.pipeline.scheduler.DagScheduler`) runs on a
pool built by :func:`fork_pool`, the only pool.  Both size themselves
with :func:`resolve_n_jobs` and ask :func:`can_fork_pool` (the tree:
:func:`can_fork_tree`) whether workers may start.

Resolution order for the worker count: an explicit value, then the
count pinned for the current thread of execution
(:func:`pinned_n_jobs`: the CLI's ``--jobs`` around a command, a
:class:`~repro.pipeline.Pipeline` or ``run_batch`` around its plan, a
``PartitionConfig.n_jobs`` around its stage), then the ``REPRO_N_JOBS``
knob (:data:`repro.util.env.KNOBS`), then one worker per CPU.  The count is never
part of a content address: labels and records are the same for every
count.

Both rely on ``fork``, so nothing is pickled on the way in: a forked
child inherits its inputs copy-on-write, and a pool hands the round's
inputs to each worker as initializer arguments, which a task reads back
with :func:`inherited`.  Workers need more than one of them, a parent
that may have children (a daemonic process, e.g. a serve job child, may
not), and a host that offers ``fork``; anywhere else the caller runs
its work inline.  A tree's processes stay in the caller's process
group, and each ends with the process that forked it (Linux's
parent-death signal), so a caller that is killed takes its whole tree
with it; a host without that signal runs the tree inline.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import signal
import sys
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from .env import read

__all__ = [
    "Forked",
    "can_fork_pool",
    "can_fork_tree",
    "fork",
    "fork_pool",
    "inherited",
    "pinned_n_jobs",
    "resolve_executor",
    "resolve_n_jobs",
]

#: Valid executor choices for the bisection tree: ``"auto"`` forks
#: workers for large graphs only, ``"process"`` at any size.
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

    ``-1`` means one worker per CPU, and so does nothing set at all.
    """
    if n_jobs is None:
        n_jobs = _pinned.get()
    if n_jobs is None:
        n_jobs = read("REPRO_N_JOBS")
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, n_jobs)


def resolve_executor(executor: str | None = None) -> str:
    """Validate an executor choice for
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
    """Whether ``n_jobs`` forked workers, a pool or a fork-join tree,
    may start here."""
    return (
        n_jobs > 1
        and not multiprocessing.current_process().daemon
        and "fork" in multiprocessing.get_all_start_methods()
    )


#: ``prctl`` option that sets the signal a process gets when the thread
#: that forked it ends (``<linux/prctl.h>``).
_PR_SET_PDEATHSIG = 1


@functools.cache
def _parent_death() -> Callable[..., int] | None:
    """libc's ``prctl``, through which a :func:`fork` child asks for
    ``SIGKILL`` when its parent ends; ``None`` off Linux."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes

    try:
        return ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None


def can_fork_tree(n_jobs: int) -> bool:
    """Whether a fork-join tree of ``n_jobs`` processes may start: where
    a pool may, on a host where each :func:`fork` child ends with its
    parent."""
    return can_fork_pool(n_jobs) and _parent_death() is not None


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


#: First byte a :func:`fork` child writes: its array follows, or the
#: traceback of what it raised.
_SENT, _RAISED = b"\x00", b"\x01"

#: Pipe ends this process holds for other processes: the read ends of
#: the children it has yet to join and, in a forked child, the write end
#: to its parent.  A child forked meanwhile closes its copies, so no
#: process holds a pipe that is not its own open.
_PIPES: set[int] = set()

#: Held from a pipe's creation until its write end is closed here, so a
#: fork from another thread never copies a write end in between.
_FORK_LOCK = threading.Lock()


def _write_all(fd: int, data: bytes | memoryview) -> None:
    view = memoryview(data)
    while len(view):
        view = view[os.write(fd, view):]


class Forked:
    """A child forked by :func:`fork`, computing one array.

    :meth:`join` receives the array and reaps the child;
    :meth:`kill` ends a child whose array is no longer wanted, and
    with it every process it forked in turn.
    """

    __slots__ = ("pid", "fd")

    def __init__(self, pid: int, fd: int) -> None:
        self.pid, self.fd = pid, fd

    def join(self, out: Any) -> None:
        """Read the child's array into ``out``, a writable C-contiguous
        buffer of exactly its size, and reap the child.

        Raises :class:`ChildProcessError` if the child raised, died or
        sent too little; the child is gone either way.
        """
        view = memoryview(out).cast("B")
        got, detail = 0, ""
        try:
            _PIPES.discard(self.fd)
            with open(self.fd, "rb", buffering=0) as pipe:
                self.fd = -1
                status = pipe.read(1)
                if status == _SENT:
                    while got < len(view):
                        n = pipe.readinto(view[got:])
                        if not n:
                            break
                        got += n
                else:
                    detail = pipe.read().decode(errors="replace")
        except BaseException:
            self.kill()
            raise
        ok = status == _SENT and got == len(view)
        pid, code = self.pid, self._reap(kill=not ok)
        if ok and code == 0:
            return
        if not detail:
            detail = (
                f"sent {got} of {len(view)} bytes"
                if status == _SENT
                else "sent nothing"
            )
        raise ChildProcessError(
            f"forked child {pid} exited with code {code}: {detail}"
        )

    def kill(self) -> None:
        """End the child unread, and reap it; what it forked ends with
        it."""
        if self.fd >= 0:
            _PIPES.discard(self.fd)
            os.close(self.fd)
            self.fd = -1
        self._reap(kill=True)

    def _reap(self, *, kill: bool) -> int:
        pid, self.pid = self.pid, 0
        if pid <= 0:
            return 0
        if kill:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def fork(fn: Callable[..., Any], *args: Any) -> Forked:
    """Run ``fn(*args)`` in a child forked from this process.

    The child inherits ``args`` at fork, so nothing is pickled on the
    way in, and sends back ``fn``'s result, a C-contiguous array, as
    raw bytes through a pipe; read it with :meth:`Forked.join`.  What
    ``fn`` raises travels back as its traceback.  The child gets
    ``SIGKILL`` when the calling thread ends, so it ends with this
    process, and :meth:`Forked.kill` (or a failed join) ends every
    process under it in turn; the calling thread must join or kill it
    before it ends.  A failed ``os.fork`` raises its :class:`OSError`.

    Call it only where :func:`can_fork_tree` allows.
    """
    global _FORK_LOCK
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    # Resolved before the fork: the child must not load a library.
    prctl, parent = _parent_death(), os.getpid()
    with _FORK_LOCK:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                if prctl is not None:
                    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                    if os.getppid() != parent:  # it ended before that
                        os.kill(os.getpid(), signal.SIGKILL)
                _FORK_LOCK = threading.Lock()
                os.close(read_fd)
                for fd in _PIPES:
                    os.close(fd)
                _PIPES.clear()
                _PIPES.add(write_fd)
                try:
                    view = memoryview(fn(*args)).cast("B")
                    _write_all(write_fd, _SENT)
                    _write_all(write_fd, view)
                    code = 0
                except BaseException:
                    _write_all(
                        write_fd, _RAISED + traceback.format_exc().encode()
                    )
            finally:
                os._exit(code)
        os.close(write_fd)
        _PIPES.add(read_fd)
    return Forked(pid, read_fd)
