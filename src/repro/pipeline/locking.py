"""Advisory cross-process file locks and atomic digest claims.

This is the concurrency substrate of the artifact store's
cross-process tier.  Two cooperating mechanisms guard each digest:

* an **advisory file lock** (``fcntl.flock`` on POSIX,
  ``msvcrt.locking`` on Windows, an ``O_EXCL`` sentinel elsewhere) on
  ``<digest>.lock``.  The kernel releases it automatically when the
  holder dies, so a crashed winner never wedges the digest;
* an **atomic claim file** ``<digest>.claim`` carrying
  ``{pid, hostname, started_at, heartbeat, token}``.  The claim is
  what survives a crash *visibly*: a waiter that finds a claim whose
  pid is dead (same host) or whose heartbeat is older than the TTL
  reclaims it with a logged takeover.

The claim-file state machine (see also the README)::

    absent ──claim won──▶ active ──publish+release──▶ absent
      ▲                    │  │
      │   reclaim (logged) │  │ holder dies / heartbeat > TTL
      └────────────────────┘  ▼
                            stale

:func:`acquire_claim` turns the two mechanisms into one verdict: the
caller either *wins* (compute, publish, release) or becomes a *reader*
(the winner published while we waited — just read the artifact).  A
winner holds a ``token`` that publication is guarded on: if the claim
was taken over while it computed (e.g. its clock is skewed and its
heartbeats look ancient to everyone else), :meth:`Lease.still_owner`
turns false and the deposed winner must *drop* its publish — that is
what makes "no digest is ever computed twice successfully" a real
invariant rather than a probabilistic one.
"""

from __future__ import annotations

import errno
import os
import socket
import threading
import time
import uuid
import warnings
from pathlib import Path
from typing import Any, Callable

from ..util.fsjson import atomic_write_json, read_json

__all__ = [
    "FileLock",
    "Lease",
    "acquire_claim",
    "read_claim",
    "claim_is_stale",
    "pid_alive",
]

try:  # POSIX
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - Windows
    _fcntl = None
    try:
        import msvcrt as _msvcrt
    except ImportError:  # pragma: no cover - exotic platform
        _msvcrt = None


#: Seconds between looks at a claim another process holds.
CLAIM_POLL_S = 0.05


def _now() -> float:
    """Clock used for heartbeats/staleness (an indirection so chaos
    tests can skew one process's notion of time)."""
    return time.time()


# ----------------------------------------------------------------------
# Advisory file lock
# ----------------------------------------------------------------------
class FileLock:
    """An advisory, exclusive, cross-process lock on a path.

    The lock is tied to an open file descriptor, so the kernel drops
    it when the holding process exits *for any reason* — including
    SIGKILL mid-critical-section.  Within one process, two
    :class:`FileLock` instances on the same path also exclude each
    other (each holds its own descriptor).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fd: int | None = None

    def try_acquire(self) -> bool:
        """Take the lock without blocking; ``False`` if held elsewhere.

        Raises ``OSError`` when the filesystem does not support
        locking at all (the store degrades to unlocked operation).
        """
        if self._fd is not None:
            return True
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if _fcntl is not None:
                _fcntl.flock(fd, _fcntl.LOCK_EX | _fcntl.LOCK_NB)
            elif _msvcrt is not None:  # pragma: no cover - Windows
                _msvcrt.locking(fd, _msvcrt.LK_NBLCK, 1)
            else:  # pragma: no cover - exotic platform
                # O_EXCL sentinel next to the lock path; released (and
                # leak-swept by doctor) via unlink in release().
                os.close(fd)
                fd = os.open(
                    str(self.path) + ".x",
                    os.O_CREAT | os.O_EXCL | os.O_RDWR,
                    0o644,
                )
        except OSError as exc:
            os.close(fd)
            if exc.errno in (errno.EACCES, errno.EAGAIN, errno.EWOULDBLOCK):
                return False
            if _msvcrt is None and _fcntl is None and exc.errno == errno.EEXIST:
                return False  # pragma: no cover - sentinel backend
            raise
        self._fd = fd
        return True

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if _fcntl is not None:
                _fcntl.flock(fd, _fcntl.LOCK_UN)
            elif _msvcrt is not None:  # pragma: no cover - Windows
                _msvcrt.locking(fd, _msvcrt.LK_UNLCK, 1)
        except OSError:  # pragma: no cover - defensive
            pass
        finally:
            if _fcntl is not None or _msvcrt is not None:
                os.close(fd)
            else:  # pragma: no cover - sentinel backend
                os.close(fd)
                try:
                    os.unlink(str(self.path) + ".x")
                except OSError:
                    pass


# ----------------------------------------------------------------------
# Claim files
# ----------------------------------------------------------------------
def pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live process on *this* host."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    except OSError:  # pragma: no cover - defensive
        return True
    return True


def read_claim(path: str | Path) -> dict[str, Any] | None:
    """The claim record at ``path`` (``None`` if absent/unreadable)."""
    return read_json(path)


def claim_is_stale(claim: dict[str, Any], ttl: float) -> bool:
    """Whether a claim may be taken over: its holder is a dead pid on
    this host, or its heartbeat is older than ``ttl`` seconds."""
    try:
        heartbeat = float(claim.get("heartbeat", 0.0))
    except (TypeError, ValueError):
        return True
    if _now() - heartbeat > ttl:
        return True
    host = claim.get("hostname")
    if host == socket.gethostname():
        try:
            pid = int(claim.get("pid", -1))
        except (TypeError, ValueError):
            return True
        if not pid_alive(pid):
            return True
    return False


def _write_claim(path: Path, token: str, started_at: float) -> None:
    record = {
        "pid": os.getpid(),
        "hostname": socket.gethostname(),
        "started_at": started_at,
        "heartbeat": _now(),
        "token": token,
    }
    atomic_write_json(path, record)


def _drop_claim(path: Path, token: str) -> None:
    """Remove the claim at ``path`` if it is still ``token``'s."""
    claim = read_claim(path)
    if claim is not None and claim.get("token") == token:
        try:
            path.unlink()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
class Lease:
    """The outcome of :func:`acquire_claim` for one digest.

    ``role == "winner"``: the caller must compute, publish (guarded on
    :meth:`still_owner`) and :meth:`release`.  ``role == "reader"``:
    the winner already published; just read the artifact and
    :meth:`release` (a no-op beyond bookkeeping).
    """

    def __init__(
        self,
        *,
        role: str,
        claim_path: Path | None = None,
        lock: FileLock | None = None,
        token: str = "",
        ttl: float = 30.0,
        reclaimed: bool = False,
        deposed_holder: bool = False,
        unguarded: bool = False,
    ) -> None:
        self.role = role
        self.claim_path = claim_path
        self.lock = lock
        self.token = token
        self.ttl = ttl
        #: True when this winner took over a stale claim (crash cleanup).
        self.reclaimed = reclaimed
        #: True when this winner overwrote a live-but-stale holder's
        #: claim rather than winning the free lock.
        self.deposed_holder = deposed_holder
        #: True when the wait timed out and the caller computes without
        #: mutual exclusion (duplicate work possible; publish still
        #: token-guarded).
        self.unguarded = unguarded
        self._released = False
        self._hb_stop: threading.Event | None = None
        self._hb_thread: threading.Thread | None = None
        if role == "winner" and claim_path is not None:
            self._start_heartbeat()

    # -- heartbeat -----------------------------------------------------
    def _start_heartbeat(self) -> None:
        interval = max(self.ttl / 4.0, 0.05)
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    claim = read_claim(self.claim_path)  # type: ignore[arg-type]
                    if claim is None or claim.get("token") != self.token:
                        return  # deposed; stop advertising
                    claim["heartbeat"] = _now()
                    atomic_write_json(
                        self.claim_path, claim  # type: ignore[arg-type]
                    )
                except OSError:  # pragma: no cover - defensive
                    return

        self._hb_stop = stop
        self._hb_thread = threading.Thread(
            target=beat, daemon=True, name="repro-claim-heartbeat"
        )
        self._hb_thread.start()

    # -- ownership -----------------------------------------------------
    def still_owner(self) -> bool:
        """Whether this winner's claim is still in force (publish
        guard: a deposed winner must drop its publish)."""
        if self.role != "winner":
            return False
        if self.claim_path is None:
            return True  # lockless store: nothing to be deposed from
        claim = read_claim(self.claim_path)
        return claim is not None and claim.get("token") == self.token

    def release(self) -> None:
        """Retire the lease (idempotent): stop the heartbeat, remove
        our claim file, free the lock."""
        if self._released:
            return
        self._released = True
        if self._hb_stop is not None:
            self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(timeout=1.0)
        if self.role == "winner" and self.claim_path is not None:
            _drop_claim(self.claim_path, self.token)
        if self.lock is not None:
            self.lock.release()

    def __enter__(self) -> "Lease":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()


def acquire_claim(
    base: Path,
    *,
    published: Callable[[], bool],
    ttl: float = 30.0,
    timeout: float = 600.0,
) -> Lease:
    """Win or wait out the claim for one digest.

    ``base`` is the artifact base path (``<root>/<stage>/<digest>``);
    the lock and claim live at ``base + ".lock"`` / ``base + ".claim"``.
    ``published()`` tells the wait loop whether the winner's artifact
    has landed.

    Returns a winner lease (compute + publish + release), or a reader
    lease as soon as ``published()`` turns true.  Stale claims — dead
    pid on this host, or heartbeat older than ``ttl`` — are reclaimed
    with a logged takeover.  If ``timeout`` expires while a live
    holder is still computing, the caller proceeds *unguarded* (warned;
    duplicate compute is then possible but publication stays
    token-guarded, so at most one publish lands).
    """
    lock_path = base.with_name(base.name + ".lock")
    claim_path = base.with_name(base.name + ".claim")
    base.parent.mkdir(parents=True, exist_ok=True)
    token = uuid.uuid4().hex
    lock = FileLock(lock_path)
    deadline = time.monotonic() + timeout
    waiting_since: float | None = None

    while True:
        if published():
            lock.release()
            return Lease(role="reader", ttl=ttl)
        if lock.try_acquire():
            # A holder may have published and released between the
            # check above and taking the lock: then there is nothing
            # left to compute.
            if published():
                lock.release()
                return Lease(role="reader", ttl=ttl)
            # The lock is ours.  A leftover claim means the previous
            # holder died between claiming and releasing.
            reclaimed = False
            old = read_claim(claim_path)
            if old is not None and old.get("token") != token:
                reclaimed = True
                warnings.warn(
                    f"reclaiming stale claim on {base.name[:12]} "
                    f"(holder pid {old.get('pid')} on "
                    f"{old.get('hostname')} is gone)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            _write_claim(claim_path, token, started_at=_now())
            return Lease(
                role="winner",
                claim_path=claim_path,
                lock=lock,
                token=token,
                ttl=ttl,
                reclaimed=reclaimed,
            )
        # Lock held by a live process: wait, watching for staleness.
        if waiting_since is None:
            waiting_since = time.monotonic()
        old = read_claim(claim_path)
        if old is not None and claim_is_stale(old, ttl):
            # Live holder with an expired heartbeat (skewed clock or a
            # hung heartbeat thread): depose it by overwriting the
            # claim.  We cannot take its flock, so this winner runs
            # without one — the token guard keeps publication single.
            warnings.warn(
                f"taking over stale claim on {base.name[:12]} "
                f"(pid {old.get('pid')}: heartbeat "
                f"{_now() - float(old.get('heartbeat', 0.0)):.1f}s old, "
                f"ttl {ttl:g}s)",
                RuntimeWarning,
                stacklevel=2,
            )
            _write_claim(claim_path, token, started_at=_now())
            if published():
                # The deposed holder published before our claim landed.
                _drop_claim(claim_path, token)
                return Lease(role="reader", ttl=ttl)
            return Lease(
                role="winner",
                claim_path=claim_path,
                lock=None,
                token=token,
                ttl=ttl,
                reclaimed=True,
                deposed_holder=True,
            )
        if time.monotonic() >= deadline:
            warnings.warn(
                f"timed out after {timeout:g}s waiting for the claim on "
                f"{base.name[:12]}; computing without mutual exclusion",
                RuntimeWarning,
                stacklevel=2,
            )
            return Lease(role="winner", ttl=ttl, unguarded=True)
        time.sleep(CLAIM_POLL_S)
