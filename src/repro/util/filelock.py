"""Advisory cross-process file locks and a same-host pid probe.

The artifact store's digest claims (:mod:`repro.pipeline.locking`) and
the serve spool (:mod:`repro.service.queue`) both build on these two
primitives, so they live here, where the serve control plane can reach
them without importing the pipeline.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path

__all__ = ["FileLock", "pid_alive"]

_fcntl = _msvcrt = None
try:  # POSIX
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - Windows
    try:
        import msvcrt as _msvcrt
    except ImportError:  # pragma: no cover - exotic platform
        pass


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
