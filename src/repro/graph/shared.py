"""Shared CSR graph storage for multi-process partitioning.

Parallel recursive bisection dispatches independent subtree nodes to
workers.  With a process pool, pickling the whole :class:`CSRGraph`
into every task would copy O(n + m) bytes per split — at paper scale
(1M+ cells) that dwarfs the partitioning work itself.  Instead the
parent packs the four CSR arrays (``xadj/adjncy/vwgt/adjwgt``) into a
single temporary file once and maps it with :class:`numpy.memmap`;
tasks carry only a tiny picklable *descriptor*, and each worker process
attaches the file one time and reconstructs zero-copy read-only array
views.

Cleanup is defensive in two layers.  The parent object unlinks its
file via ``weakref.finalize`` (which also runs at interpreter exit),
so worker crashes cannot leak segments — only the parent owns the
segment's lifetime.  And because a finalizer cannot survive
``SIGKILL``, file names embed the owning pid (``repro_csr_<pid>_...``):
a killed parent's leftovers are recognisably stale (dead pid) and
reclaimed by :func:`sweep_stale_segments` — run automatically once per
process before the first segment is created (disable with
``REPRO_SHM_SWEEP=0``), or on demand via ``repro gc``.
"""

from __future__ import annotations

import os
import re
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np

from .csr import CSRGraph

__all__ = [
    "SharedCSR",
    "attached_graph",
    "stale_segments",
    "sweep_stale_segments",
]

#: Segment naming: the owning pid is part of the name, so a sweep can
#: tell live segments from the litter of killed processes.
_PREFIX = "repro_csr_"
_NAME_RE = re.compile(r"^repro_csr_(\d+)_.*$")

_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedCSR:
    """One read-only shared copy of a graph's CSR arrays.

    Create with :meth:`from_graph` in the parent; ship
    :meth:`descriptor` (a small picklable dict) to workers; workers
    call :meth:`attach` (usually via :func:`attached_graph`, which
    caches one attachment per process) and :meth:`graph` for zero-copy
    views.  The parent should call :meth:`unlink` when done — a
    finalizer does it anyway if forgotten or on crash.
    """

    def __init__(
        self,
        *,
        name: str,
        layout: dict[str, tuple[str, tuple[int, ...], int]],
        total: int,
        buf,
        owner: bool,
    ) -> None:
        self._name = name
        self._layout = layout
        self._total = total
        self._buf = buf
        self._owner = owner
        if owner:
            self._finalizer = weakref.finalize(self, _cleanup, name)
        else:
            self._finalizer = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, g: CSRGraph) -> "SharedCSR":
        """Pack ``g``'s CSR arrays into one new shared segment."""
        arrays = {
            "xadj": g.xadj,
            "adjncy": g.adjncy,
            "vwgt": g.vwgt,
            "adjwgt": g.adjwgt,
        }
        layout: dict[str, tuple[str, tuple[int, ...], int]] = {}
        offset = 0
        for key, arr in arrays.items():
            offset = _aligned(offset)
            layout[key] = (arr.dtype.str, arr.shape, offset)
            offset += arr.nbytes
        total = max(1, offset)

        _sweep_once()
        fd, path = tempfile.mkstemp(
            prefix=f"{_PREFIX}{os.getpid()}_", suffix=".bin"
        )
        os.close(fd)
        with open(path, "wb") as fh:
            fh.truncate(total)
        buf = np.memmap(path, dtype=np.uint8, mode="r+", shape=(total,))

        out = cls(name=path, layout=layout, total=total, buf=buf, owner=True)
        for key, arr in arrays.items():
            out._view(key)[...] = arr
        buf.flush()
        return out

    @classmethod
    def attach(cls, desc: dict) -> "SharedCSR":
        """Attach to an existing segment from its descriptor."""
        layout = {
            k: (d, tuple(s), o) for k, (d, s, o) in desc["layout"].items()
        }
        buf = np.memmap(
            desc["name"], dtype=np.uint8, mode="r", shape=(desc["total"],)
        )
        return cls(
            name=desc["name"],
            layout=layout,
            total=desc["total"],
            buf=buf,
            owner=False,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _view(self, key: str) -> np.ndarray:
        dtype, shape, offset = self._layout[key]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(
            self._buf, dtype=np.dtype(dtype), count=count, offset=offset
        )
        return arr.reshape(shape)

    def graph(self) -> CSRGraph:
        """Zero-copy :class:`CSRGraph` over the shared arrays.

        The views are served straight from the segment; treat the
        graph as read-only (CSRGraph never mutates its arrays).
        """
        return CSRGraph(
            self._view("xadj"),
            self._view("adjncy"),
            vwgt=self._view("vwgt"),
            adjwgt=self._view("adjwgt"),
        )

    def descriptor(self) -> dict:
        """Small picklable handle workers use to :meth:`attach`."""
        return {
            "name": self._name,
            "total": self._total,
            "layout": {
                k: (d, list(s), o) for k, (d, s, o) in self._layout.items()
            },
        }

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (does not remove the segment)."""
        self._buf = None

    def unlink(self) -> None:
        """Remove the segment (owner only; idempotent)."""
        self.close()
        if self._finalizer is not None:
            # Runs _cleanup exactly once, even if the finalizer would
            # also fire later at gc/exit.
            self._finalizer()

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink() if self._owner else self.close()


def _cleanup(name: str) -> None:
    """Owner-side segment removal; must never raise (finalizer)."""
    try:
        os.unlink(name)
    except OSError:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Stale-segment hygiene
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    from ..pipeline.locking import pid_alive

    return pid_alive(pid)


def stale_segments() -> list[Path]:
    """Shared segments whose owning process is dead.

    Scans the temp dir for ``repro_csr_<pid>_*`` files; an entry is
    stale when its embedded pid no longer exists.  Only this naming
    scheme is considered — foreign files are never touched.
    """
    stale: list[Path] = []
    try:
        entries = list(Path(tempfile.gettempdir()).iterdir())
    except OSError:
        return stale
    for path in entries:
        match = _NAME_RE.match(path.name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid != os.getpid() and not _pid_alive(pid):
            stale.append(path)
    return stale


def sweep_stale_segments(*, remove: bool = True) -> list[str]:
    """Reclaim dead-pid segments; returns the affected names.

    With ``remove=False`` (``repro gc --dry-run``) only reports.
    Removal races are benign: a segment deleted by a concurrent sweep
    is simply skipped.
    """
    swept: list[str] = []
    for path in stale_segments():
        if remove:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            except OSError:  # pragma: no cover - permissions
                continue
        swept.append(path.name)
    return swept


_SWEPT = False


def _sweep_once() -> None:
    """One startup sweep per process, before the first segment.

    Gated by ``REPRO_SHM_SWEEP=0`` for setups where another live
    process manages segments this scan cannot attribute (e.g. a pid
    namespace boundary makes owner pids unresolvable).
    """
    global _SWEPT
    if _SWEPT or os.environ.get("REPRO_SHM_SWEEP", "1") == "0":
        _SWEPT = True
        return
    _SWEPT = True
    swept = sweep_stale_segments()
    if swept:
        warnings.warn(
            f"reclaimed {len(swept)} stale shared CSR segment(s) "
            f"left by dead processes: {', '.join(sorted(swept)[:4])}"
            + ("..." if len(swept) > 4 else ""),
            RuntimeWarning,
            stacklevel=3,
        )


# ----------------------------------------------------------------------
# Per-process attachment cache (worker side)
# ----------------------------------------------------------------------
#: Segments this process has attached, keyed by segment name.  A worker
#: serves every task of a partitioning run from one attachment.
_ATTACHED: dict[str, tuple[SharedCSR, CSRGraph]] = {}


def attached_graph(desc: dict) -> tuple[CSRGraph, bool]:
    """Worker-side accessor: the shared graph for ``desc``.

    Returns ``(graph, fresh)`` where ``fresh`` is True when this call
    performed the actual attach (first task in this process) — the
    diagnostics recursive bisection uses to prove workers attach
    rather than receive pickled graphs.
    """
    key = desc["name"]
    ent = _ATTACHED.get(key)
    if ent is not None:
        return ent[1], False
    scsr = SharedCSR.attach(desc)
    g = scsr.graph()
    _ATTACHED[key] = (scsr, g)
    return g, True
