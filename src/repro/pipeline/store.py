"""Content-addressed artifact store for pipeline stage outputs.

Layout (one directory per stage under the root)::

    <root>/mesh/<digest>.npz        arrays
    <root>/mesh/<digest>.json       sidecar: config, provenance
    <root>/mesh/<digest>.lock       advisory compute lock (crumb file)
    <root>/mesh/<digest>.claim      active compute claim (transient)
    <root>/partition/<digest>.npz
    <root>/.quarantine/             corrupt entries, moved aside
    ...

The digest is the stage's content address
(:func:`repro.pipeline.hashing.stage_digest`): stage name + stage
version + package version + canonical config + upstream digests.  Any
prefix of the chain computed once is therefore reused across
experiments, CLI invocations, benches and campaign restarts.

The ``.npz`` members are **stored, not deflated** (``np.savez``): every
entry is recomputable, and deflating one cost more than recomputing
most of them (a third of a ``downstream_sweep`` batch went to zlib for
a x6.5 smaller cache; EXPERIMENTS.md "Store writes that cost what they
save").  Each member still carries its zip CRC-32, checked on read.
Disk use is what ``repro store doctor`` prints per stage and what
``REPRO_ARTIFACTS_BUDGET`` bounds.  ``np.load`` reads deflated members
too, so entries written by earlier versions stay disk hits.

Writes are crash-safe with the same idiom as
:mod:`repro.resilience.checkpoint`: both files go to ``*.tmp`` first
and are ``os.replace``-d into place, arrays before sidecar, so a
sidecar is only ever visible once its arrays are complete.

Reads are *self-healing*: a truncated ``.npz``, an unparsable sidecar,
or a sidecar whose recorded digest/arrays manifest disagrees with the
files on disk is treated as a miss (with a :class:`RuntimeWarning`).
The corrupt entry is **quarantined** into ``<root>/.quarantine/``
rather than silently overwritten, so a flaky disk leaves evidence;
``repro store doctor`` inspects and flushes the quarantine.

Cross-process tier
------------------
A store whose disk layer is enabled coordinates concurrent workers
through per-digest advisory locks and atomic claim files
(:mod:`repro.pipeline.locking`): on a shared miss, exactly one worker
wins the claim and computes; the others block (with a timeout) and
read the published artifact.  Stale claims — dead pids, heartbeats
older than ``claim_ttl`` — are reclaimed with a logged takeover, and
publication is token-guarded so a deposed winner's late publish is
dropped instead of double-counting the digest.

The disk layer also enforces an optional **byte budget**
(``REPRO_ARTIFACTS_BUDGET``, e.g. ``"512M"``): after each write, the
least-recently-used artifacts are evicted (sidecar mtime is bumped on
every disk hit) until the store fits.  Eviction takes each victim's
digest lock first, so it never rips an artifact out from under an
active claim.

Degradation: a disk-full / permission / read-only-filesystem error
does not fail the producing run — the store logs one warning, drops
to memory-only operation for the rest of the process, and keeps
serving (``stats.degraded`` records the reason).

On top of the disk layer sits a small **bounded** in-process LRU of
deserialized objects (``memory_items`` entries, default 64).  A store
with ``root=None`` is memory-only, which is the default for in-process
use (tests, library callers); the CLI and the batch runner enable the
disk layer via ``--artifacts`` / ``REPRO_ARTIFACTS``.
"""

from __future__ import annotations

import errno
import json
import os
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..util.fsjson import read_json
from .locking import (
    FileLock,
    Lease,
    acquire_claim,
    claim_is_stale,
    parse_bytes,
    read_claim,
)

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "DoctorReport",
    "default_store",
    "set_default_store",
    "default_cache_root",
]

SIDECAR_VERSION = 1

#: Default on-disk root when the disk layer is enabled without an
#: explicit directory.
DEFAULT_CACHE_DIR = "~/.cache/repro"

#: Directory (under the root) corrupt entries are moved into.
QUARANTINE_DIR = ".quarantine"

#: OSError errnos that flip the store to memory-only instead of
#: failing the producing run.
_DEGRADE_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EDQUOT, errno.EACCES, errno.EPERM, errno.EROFS}
)


def default_cache_root() -> Path:
    """The default on-disk root (``$REPRO_ARTIFACTS`` or
    ``~/.cache/repro``)."""
    env = os.environ.get("REPRO_ARTIFACTS", "").strip()
    return Path(env if env else DEFAULT_CACHE_DIR).expanduser()


@dataclass
class StoreStats:
    """Hit/miss counters (also surfaced per stage in provenance)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    corrupt: int = 0
    #: Cross-process tier counters.
    claims_won: int = 0
    claims_waited: int = 0
    claims_reclaimed: int = 0
    publishes_dropped: int = 0
    evicted: int = 0
    quarantined: int = 0
    #: Non-empty once the disk layer degraded to memory-only.
    degraded: str = ""

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


@dataclass
class _DiskPayload:
    """What the disk layer hands back on a hit."""

    arrays: dict[str, np.ndarray]
    sidecar: dict[str, Any]


@dataclass
class DoctorReport:
    """What ``ArtifactStore.doctor`` found on disk (see ``repro store
    doctor``)."""

    root: Path
    entries: int = 0
    total_bytes: int = 0
    per_stage: dict[str, tuple[int, int]] = field(default_factory=dict)
    quarantined: list[str] = field(default_factory=list)
    stale_claims: list[str] = field(default_factory=list)
    active_claims: list[str] = field(default_factory=list)
    tmp_files: list[str] = field(default_factory=list)
    budget_bytes: int | None = None
    flushed: int = 0

    @property
    def healthy(self) -> bool:
        return not (self.quarantined or self.stale_claims or self.tmp_files)

    def summary(self) -> str:
        lines = [
            f"artifact store at {self.root}",
            f"  entries: {self.entries} ({self.total_bytes / 2**20:.1f} MiB"
            + (
                f" of {self.budget_bytes / 2**20:.1f} MiB budget)"
                if self.budget_bytes
                else ")"
            ),
        ]
        for stage, (n, b) in sorted(self.per_stage.items()):
            lines.append(f"    {stage:>10s}: {n} artifacts, {b / 2**20:.1f} MiB")
        lines.append(f"  active claims: {len(self.active_claims)}")
        for c in self.active_claims:
            lines.append(f"    {c}")
        lines.append(f"  stale claims: {len(self.stale_claims)}")
        for c in self.stale_claims:
            lines.append(f"    {c}")
        lines.append(f"  quarantined: {len(self.quarantined)}")
        for q in self.quarantined:
            lines.append(f"    {q}")
        lines.append(f"  leftover tmp files: {len(self.tmp_files)}")
        if self.flushed:
            lines.append(f"  flushed: {self.flushed} files removed")
        lines.append("  status: " + ("healthy" if self.healthy else "needs attention"))
        return "\n".join(lines)


class ArtifactStore:
    """Two-level (memory LRU over optional disk) artifact cache.

    Parameters
    ----------
    root:
        Directory of the disk layer; ``None`` disables it (memory-only
        store).
    memory_items:
        Bound of the in-process object LRU (>= 0; 0 disables it).
        The default (64) comfortably covers the paper's sweeps while
        keeping long campaigns from holding every mesh alive.
    lock_timeout:
        How long a loser blocks on another worker's claim before
        computing unguarded (``REPRO_STORE_LOCK_TIMEOUT``, default
        600 s).
    claim_ttl:
        Heartbeat age beyond which a claim counts as stale and is
        reclaimed (``REPRO_STORE_CLAIM_TTL``, default 30 s).
    budget_bytes:
        Disk byte budget for LRU eviction; ``None`` reads
        ``REPRO_ARTIFACTS_BUDGET`` (unset = unbounded).  Accepts
        ``"512M"``-style strings.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        memory_items: int = 64,
        lock_timeout: float | None = None,
        claim_ttl: float | None = None,
        budget_bytes: int | str | None = None,
    ) -> None:
        self.root = Path(root).expanduser() if root is not None else None
        if memory_items < 0:
            raise ValueError("memory_items must be >= 0")
        self.memory_items = memory_items
        # The cross-process claim tier is on whenever a disk layer is;
        # a filesystem without lock support switches it off (claim()).
        self.locking = True
        self.lock_timeout = (
            float(lock_timeout)
            if lock_timeout is not None
            else _env_float("REPRO_STORE_LOCK_TIMEOUT", 600.0)
        )
        self.claim_ttl = (
            float(claim_ttl)
            if claim_ttl is not None
            else _env_float("REPRO_STORE_CLAIM_TTL", 30.0)
        )
        if budget_bytes is None:
            env = os.environ.get("REPRO_ARTIFACTS_BUDGET", "").strip()
            try:
                self.budget_bytes = parse_bytes(env or None)
            except ValueError as exc:
                warnings.warn(
                    f"ignoring REPRO_ARTIFACTS_BUDGET: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.budget_bytes = None
        else:
            self.budget_bytes = parse_bytes(budget_bytes)
        self.stats = StoreStats()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._disk_fault: str | None = None

    # -- memory layer --------------------------------------------------
    def memory_get(self, digest: str) -> Any | None:
        """The cached object for ``digest`` (moves it to MRU)."""
        with self._lock:
            try:
                obj = self._memory.pop(digest)
            except KeyError:
                return None
            self._memory[digest] = obj
            return obj

    def memory_put(self, digest: str, obj: Any) -> None:
        """Insert/refresh an object, evicting LRU entries past the
        bound."""
        if self.memory_items == 0:
            return
        with self._lock:
            self._memory.pop(digest, None)
            self._memory[digest] = obj
            while len(self._memory) > self.memory_items:
                self._memory.popitem(last=False)

    def clear_memory(self) -> None:
        """Drop the in-process object cache (the disk layer stays)."""
        with self._lock:
            self._memory.clear()

    # -- disk layer ----------------------------------------------------
    @property
    def disk_enabled(self) -> bool:
        return self.root is not None and self._disk_fault is None

    def _degrade(self, exc: OSError, what: str) -> None:
        """Drop the disk layer to memory-only after an environmental
        failure (disk full, permissions, read-only fs)."""
        reason = f"{what}: {exc}"
        self._disk_fault = reason
        self.stats.degraded = reason
        warnings.warn(
            f"artifact store disk layer degraded to memory-only "
            f"({reason}); jobs continue uncached on disk",
            RuntimeWarning,
            stacklevel=3,
        )

    def _maybe_degrade(self, exc: OSError, what: str) -> None:
        if exc.errno in _DEGRADE_ERRNOS:
            self._degrade(exc, what)

    def _paths(self, stage: str, digest: str) -> tuple[Path, Path]:
        base = self.root / stage / digest  # type: ignore[operator]
        return base.with_suffix(".npz"), base.with_suffix(".json")

    def _quarantine(
        self, stage: str, digest: str, npz_path: Path, json_path: Path, reason: str
    ) -> None:
        """Move a corrupt entry aside (evidence for ``store doctor``)
        instead of leaving it to be silently overwritten."""
        qdir = self.root / QUARANTINE_DIR  # type: ignore[operator]
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            moved = False
            for p in (npz_path, json_path):
                target = qdir / f"{stage}__{p.name}"
                try:
                    os.replace(p, target)
                    moved = True
                except FileNotFoundError:
                    continue
            if moved:
                note = qdir / f"{stage}__{digest}.reason.json"
                note.write_text(
                    json.dumps(
                        {
                            "stage": stage,
                            "digest": digest,
                            "reason": reason,
                            "quarantined_at": time.time(),
                            "by_pid": os.getpid(),
                        }
                    ),
                    encoding="utf-8",
                )
                self.stats.quarantined += 1
        except OSError as exc:
            self._maybe_degrade(exc, "quarantine")

    def disk_read(self, stage: str, digest: str) -> _DiskPayload | None:
        """Load an artifact from disk; ``None`` on miss *or* on any
        corruption (which is warned about, quarantined, and then
        treated as a miss, so the caller recomputes)."""
        if not self.disk_enabled:
            return None
        npz_path, json_path = self._paths(stage, digest)
        if not json_path.exists():
            return None
        try:
            sidecar = json.loads(json_path.read_text(encoding="utf-8"))
            if not isinstance(sidecar, dict):
                raise ValueError("sidecar is not a JSON object")
            if sidecar.get("digest") != digest:
                raise ValueError(
                    f"sidecar records digest {sidecar.get('digest')!r}"
                )
            if sidecar.get("stage") != stage:
                raise ValueError(
                    f"sidecar records stage {sidecar.get('stage')!r}"
                )
            expected = sidecar.get("arrays")
            if not isinstance(expected, list):
                raise ValueError("sidecar has no arrays manifest")
            # NumPy leaves a path it opened itself open when the
            # archive is truncated; a handle we own is always closed.
            with open(npz_path, "rb") as fh, np.load(
                fh, allow_pickle=False
            ) as data:
                missing = [k for k in expected if k not in data]
                if missing:
                    raise ValueError(f"arrays missing {missing}")
                arrays = {k: data[k] for k in expected}
        except Exception as exc:  # BadZipFile, OSError, ValueError, ...
            self.stats.corrupt += 1
            reason = f"{type(exc).__name__}: {exc}"
            warnings.warn(
                f"corrupt artifact {stage}/{digest[:12]} "
                f"({reason}); quarantining and recomputing",
                RuntimeWarning,
                stacklevel=3,
            )
            self._quarantine(stage, digest, npz_path, json_path, reason)
            return None
        # Bump recency for LRU eviction (atime is unreliable; use the
        # sidecar's mtime as the clock).  Best-effort only.
        try:
            os.utime(json_path)
        except OSError:
            pass
        return _DiskPayload(arrays=arrays, sidecar=sidecar)

    def disk_write(
        self,
        stage: str,
        digest: str,
        arrays: dict[str, np.ndarray],
        sidecar: dict[str, Any],
        *,
        lease: Lease | None = None,
    ) -> Path | None:
        """Atomically persist an artifact; returns the sidecar path
        (``None`` when the disk layer is disabled or the publish was
        dropped).

        With a ``lease``, publication is guarded: a winner whose claim
        was taken over while it computed (stale heartbeat takeover)
        drops the publish — the takeover's result is the one that
        lands, keeping "at most one successful publish per digest".

        A failed write is not worth killing the producing run for —
        it warns and the result simply stays uncached; environmental
        errors (disk full, permissions) degrade the store to
        memory-only.
        """
        if not self.disk_enabled:
            return None
        if lease is not None and not lease.still_owner():
            self.stats.publishes_dropped += 1
            warnings.warn(
                f"dropping publish of {stage}/{digest[:12]}: the claim "
                "was taken over while computing (stale heartbeat); the "
                "takeover's result wins",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        npz_path, json_path = self._paths(stage, digest)
        record = dict(sidecar)
        record.setdefault("sidecar_version", SIDECAR_VERSION)
        record["stage"] = stage
        record["digest"] = digest
        record["arrays"] = sorted(arrays)
        tmp_npz = npz_path.with_name(npz_path.name + f".tmp{os.getpid()}")
        tmp_json = json_path.with_name(json_path.name + f".tmp{os.getpid()}")
        try:
            npz_path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp_npz, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp_npz, npz_path)
            with open(tmp_json, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_json, json_path)
        except OSError as exc:
            for tmp in (tmp_npz, tmp_json):
                try:
                    tmp.unlink()
                except OSError:
                    pass
            self._maybe_degrade(exc, "write")
            if self._disk_fault is None:
                warnings.warn(
                    f"failed to persist artifact {stage}/{digest[:12]}: "
                    f"{exc}; continuing uncached",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        if self.budget_bytes is not None:
            self._evict_lru(protect={digest})
        return json_path

    def sidecar(self, stage: str, digest: str) -> dict[str, Any] | None:
        """The provenance sidecar of a stored artifact, if readable."""
        if self.root is None:
            return None
        _, json_path = self._paths(stage, digest)
        return read_json(json_path)

    # -- cross-process claims ------------------------------------------
    def claim(self, stage: str, digest: str) -> Lease | None:
        """Coordinate a miss across processes.

        ``None`` when there is nothing to coordinate (no disk layer, or
        the filesystem refused a lock earlier): the caller just
        computes.  Otherwise a :class:`~repro.pipeline.locking.Lease`
        — ``winner`` computes and publishes (pass the lease to
        :meth:`disk_write`), then releases; ``reader`` re-reads the
        artifact the winner published.
        """
        if not self.disk_enabled or not self.locking:
            return None
        _, json_path = self._paths(stage, digest)
        base = self.root / stage / digest  # type: ignore[operator]
        try:
            lease = acquire_claim(
                base,
                published=json_path.exists,
                ttl=self.claim_ttl,
                timeout=self.lock_timeout,
            )
        except OSError as exc:
            # Filesystem without locking support, or an environmental
            # failure: fall back to uncoordinated operation.
            self._maybe_degrade(exc, "claim")
            if self._disk_fault is None:
                warnings.warn(
                    f"cannot lock {stage}/{digest[:12]} ({exc}); "
                    "computing without cross-process coordination",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.locking = False
            return None
        if lease.role == "winner":
            self.stats.claims_won += 1
            if lease.reclaimed:
                self.stats.claims_reclaimed += 1
        else:
            self.stats.claims_waited += 1
        return lease

    # -- disk LRU eviction ---------------------------------------------
    def _disk_entries(self) -> list[tuple[float, int, str, str]]:
        """All complete artifacts as ``(mtime, bytes, stage, digest)``."""
        out: list[tuple[float, int, str, str]] = []
        root = self.root
        if root is None or not root.is_dir():
            return out
        for stage_dir in root.iterdir():
            if not stage_dir.is_dir() or stage_dir.name.startswith("."):
                continue
            for json_path in stage_dir.glob("*.json"):
                digest = json_path.stem
                npz_path = json_path.with_suffix(".npz")
                try:
                    st = json_path.stat()
                    size = st.st_size + (
                        npz_path.stat().st_size if npz_path.exists() else 0
                    )
                except OSError:
                    continue
                out.append((st.st_mtime, size, stage_dir.name, digest))
        return out

    def _evict_lru(self, protect: set[str] | None = None) -> int:
        """Evict least-recently-used artifacts until the store fits the
        byte budget.  Each victim's digest lock is taken first (and an
        active claim skips it), so eviction never races a compute.

        Returns the number of artifacts evicted.
        """
        if self.budget_bytes is None or self.root is None:
            return 0
        protect = protect or set()
        # One evictor at a time per store root; someone else already at
        # it means the budget is being enforced — skip.
        evict_gate = FileLock(self.root / ".evict.lock")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            if not evict_gate.try_acquire():
                return 0
        except OSError as exc:
            self._maybe_degrade(exc, "evict")
            return 0
        evicted = 0
        try:
            entries = self._disk_entries()
            total = sum(size for _, size, _, _ in entries)
            if total <= self.budget_bytes:
                return 0
            entries.sort()  # oldest mtime first
            for _, size, stage, digest in entries:
                if total <= self.budget_bytes:
                    break
                if digest in protect:
                    continue
                base = self.root / stage / digest
                lock = FileLock(base.with_name(base.name + ".lock"))
                try:
                    if not lock.try_acquire():
                        continue  # actively claimed; not LRU after all
                except OSError:
                    continue
                try:
                    claim = read_claim(base.with_name(base.name + ".claim"))
                    if claim is not None and not claim_is_stale(
                        claim, self.claim_ttl
                    ):
                        continue
                    for p in (
                        base.with_suffix(".npz"),
                        base.with_suffix(".json"),
                    ):
                        try:
                            p.unlink()
                        except OSError:
                            pass
                    total -= size
                    evicted += 1
                    self.stats.evicted += 1
                finally:
                    lock.release()
        finally:
            evict_gate.release()
        return evicted

    # -- doctor --------------------------------------------------------
    def doctor(self, *, flush: bool = False) -> DoctorReport:
        """Inspect the disk layer: entry counts and sizes, quarantined
        corpses, stale vs active claims, leftover tmp files.

        With ``flush=True``, quarantined files, stale claim files and
        tmp leftovers are removed (artifacts themselves are never
        touched).
        """
        root = self.root if self.root is not None else default_cache_root()
        report = DoctorReport(root=root, budget_bytes=self.budget_bytes)
        if not root.is_dir():
            return report
        for mtime, size, stage, digest in self._disk_entries():
            report.entries += 1
            report.total_bytes += size
            n, b = report.per_stage.get(stage, (0, 0))
            report.per_stage[stage] = (n + 1, b + size)
        for stage_dir in root.iterdir():
            if not stage_dir.is_dir() or stage_dir.name == QUARANTINE_DIR:
                continue
            for claim_path in stage_dir.glob("*.claim"):
                claim = read_claim(claim_path)
                label = (
                    f"{stage_dir.name}/{claim_path.stem[:12]} "
                    f"(pid {claim and claim.get('pid')}, host "
                    f"{claim and claim.get('hostname')})"
                )
                if claim is None or claim_is_stale(claim, self.claim_ttl):
                    report.stale_claims.append(label)
                    if flush:
                        try:
                            claim_path.unlink()
                            report.flushed += 1
                        except OSError:
                            pass
                else:
                    report.active_claims.append(label)
            for tmp in stage_dir.glob("*.tmp*"):
                report.tmp_files.append(f"{stage_dir.name}/{tmp.name}")
                if flush:
                    try:
                        tmp.unlink()
                        report.flushed += 1
                    except OSError:
                        pass
        qdir = root / QUARANTINE_DIR
        if qdir.is_dir():
            for p in sorted(qdir.iterdir()):
                report.quarantined.append(p.name)
                if flush:
                    try:
                        p.unlink()
                        report.flushed += 1
                    except OSError:
                        pass
        return report


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        warnings.warn(
            f"invalid {name} value {raw!r}; using {default:g}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default


# ---------------------------------------------------------------------
#: Process-wide store shared by the experiment wrappers and the CLI.
_default_store: ArtifactStore | None = None
_default_lock = threading.Lock()


def default_store() -> ArtifactStore:
    """The process-wide store.

    Memory-only by default; the disk layer switches on when
    ``REPRO_ARTIFACTS`` names a directory (the CLI's ``--artifacts``
    installs a disk-backed store explicitly via
    :func:`set_default_store`).
    """
    global _default_store
    with _default_lock:
        if _default_store is None:
            env = os.environ.get("REPRO_ARTIFACTS", "").strip()
            _default_store = ArtifactStore(root=env or None)
        return _default_store


def set_default_store(store: ArtifactStore | None) -> None:
    """Install (or with ``None`` reset) the process-wide store."""
    global _default_store
    with _default_lock:
        _default_store = store
