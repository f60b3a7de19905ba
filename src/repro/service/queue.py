"""Crash-safe filesystem job spool for the ``repro serve`` daemon.

Layout (under one spool root)::

    <spool>/pending/<job_id>.json         submitted requests
    <spool>/running/<job_id>.json         claimed by a daemon
    <spool>/running/<job_id>.status.json  streamed progress snapshots
    <spool>/done/<job_id>.json            terminal: completed status
    <spool>/failed/<job_id>.json          terminal: typed JobFailed status
    <spool>/deadletter/<job_id>.json      terminal: quarantined poison job
    <spool>/deadletter/<job_id>.bundle/   forensic bundle (raw evidence)
    <spool>/work/<job_id>/                per-attempt scratch (progress.json)
    <spool>/health/                       daemon liveness/readiness/pressure

Every transition is a single atomic ``os.replace``, so a daemon (or
client) killed at any instant leaves the spool in a consistent state:
a job is in exactly one of the five lifecycle directories, and a
request file is never observed half-written.  Claiming is rename-based
— N daemons polling one spool race on ``os.replace(pending/x,
running/x)`` and exactly one wins.

Job ids are **content addresses** (SHA-256 over the canonical request
JSON), so resubmitting an identical request deduplicates: the client
gets the id of the in-flight or already-completed job instead of a
second compute.

**Admission control**: :class:`QueueLimits` (given to the queue, or
read from the environment at each admission) bound the pending tier
by depth and by byte budget; past either bound,
:meth:`SpoolQueue.submit` raises the typed
:class:`~repro.resilience.errors.QueueFull` carrying a retry-after
hint instead of accepting unbounded work.  Deduplicated resubmissions
of jobs already in the spool are always admitted (they create no new
work).

**Dead-letter tier**: poison jobs — retries exhausted, or a worker
deterministically killed at the same stage twice — are quarantined
under ``deadletter/`` with a forensic bundle, and a per-digest circuit
breaker fast-fails resubmissions of a dead-lettered request with the
typed :class:`~repro.resilience.errors.CircuitOpenError` until
``deadletter retry``/``purge`` closes it.

The protocol is plain JSON files; no sockets, no new dependencies —
any process that can see the filesystem can submit and poll, which is
exactly the paper's shared-cluster setting.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from ..resilience.errors import CircuitOpenError, QueueFull
from ..util.canonical import canonical_json
from ..util.chain import STAGE_ORDER
from ..util.env import read
from ..util.filelock import FileLock, pid_alive
from ..util.fsjson import atomic_write_json, read_json

__all__ = [
    "JobRequest",
    "JobStatus",
    "QueueLimits",
    "SpoolQueue",
    "JOB_STATES",
    "TERMINAL_STATES",
    "stale_spool_files",
    "sweep_stale_spool",
]

#: Spool subdirectories, in lifecycle order.
JOB_STATES = ("pending", "running", "done", "failed", "deadletter")

#: States a job never leaves on its own (``deadletter`` only via the
#: operator's ``deadletter retry``).
TERMINAL_STATES = ("done", "failed", "deadletter")


@dataclass(frozen=True)
class JobRequest:
    """One scenario request (the unit of ``repro serve`` work).

    ``scenario`` names a registry entry; ``options`` are leaf-config
    overrides (``domains=64``, ``strategy="MC_TL"``, ...); ``through``
    stops the chain early (any of the pipeline's stage names).
    """

    scenario: str
    options: dict[str, Any] = field(default_factory=dict)
    through: str = "schedule"

    def __post_init__(self) -> None:
        if self.through not in STAGE_ORDER:
            raise ValueError(
                f"unknown stage {self.through!r}; choose from {STAGE_ORDER}"
            )

    def job_id(self) -> str:
        """Content address of this request (dedup key)."""
        payload = canonical_json(
            {
                "scenario": self.scenario,
                "options": self.options,
                "through": self.through,
            }
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobRequest":
        return cls(
            scenario=str(data["scenario"]),
            options=dict(data.get("options") or {}),
            through=str(data.get("through", "schedule")),
        )


@dataclass
class JobStatus:
    """Typed job status/provenance record streamed through the spool.

    ``stages`` accumulates per-stage provenance (stage name, digest,
    cache source, wall time) as the job progresses, and survives into
    the terminal record — a failed job still reports the prefix it
    completed (*partial provenance*).  ``history`` is the per-attempt
    forensic log (outcome, failure kind, exit code, last completed
    stage); ``pressure``/``degradation`` record the resource state the
    job ran under and every degradation decision taken for it.
    """

    job_id: str
    state: str  # one of JOB_STATES
    request: dict[str, Any] = field(default_factory=dict)
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0
    worker: dict[str, Any] = field(default_factory=dict)
    stages: list[dict[str, Any]] = field(default_factory=list)
    result: dict[str, Any] | None = None
    error: str | None = None
    error_kind: str | None = None
    heartbeat: float | None = None
    history: list[dict[str, Any]] = field(default_factory=list)
    pressure: dict[str, Any] | None = None
    degradation: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobStatus":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in data.items() if k in known})


def _atomic_json(path: Path, payload: dict[str, Any]) -> None:
    # Spool records stay indented + key-sorted: they are the protocol's
    # human-auditable surface (forensic bundles, `repro serve status`).
    atomic_write_json(path, payload, indent=1, sort_keys=True)



@dataclass(frozen=True)
class QueueLimits:
    """Admission-control bounds for one spool.

    ``max_pending``/``max_pending_bytes`` bound the pending tier
    (``None`` = unbounded); ``retry_after`` is the base backpressure
    hint carried by :class:`~repro.resilience.errors.QueueFull` (the
    hint scales with how far past the bound the queue is, so a deeper
    overload pushes clients further away).
    """

    max_pending: int | None = None
    max_pending_bytes: int | None = None
    retry_after: float = 0.5

    @classmethod
    def from_env(cls) -> "QueueLimits":
        """``REPRO_SPOOL_MAX_PENDING`` / ``REPRO_SPOOL_MAX_BYTES``
        (see :data:`repro.util.env.KNOBS`; unset = unbounded)."""
        return cls(
            max_pending=read("REPRO_SPOOL_MAX_PENDING"),
            max_pending_bytes=read("REPRO_SPOOL_MAX_BYTES"),
        )


class SpoolQueue:
    """The filesystem spool (see module docstring).

    ``limits=None`` reads :meth:`QueueLimits.from_env` when a submit is
    admitted, so a process that never submits (the daemon) never parses
    the admission knobs.
    """

    def __init__(
        self, root: str | Path, *, limits: QueueLimits | None = None
    ) -> None:
        self.root = Path(root).expanduser()
        self.limits = limits
        for state in JOB_STATES:
            (self.root / state).mkdir(parents=True, exist_ok=True)

    # -- paths -----------------------------------------------------------
    def _job_path(self, state: str, job_id: str) -> Path:
        return self.root / state / f"{job_id}.json"

    def _status_path(self, job_id: str) -> Path:
        return self.root / "running" / f"{job_id}.status.json"

    def _bundle_path(self, job_id: str) -> Path:
        return self.root / "deadletter" / f"{job_id}.bundle"

    def workdir(self, job_id: str) -> Path:
        return self.root / "work" / job_id

    # -- admission ---------------------------------------------------------
    def pending_load(self) -> tuple[int, int]:
        """Current pending tier load as ``(depth, bytes)``."""
        depth = 0
        nbytes = 0
        try:
            for p in (self.root / "pending").glob("*.json"):
                try:
                    nbytes += p.stat().st_size
                except OSError:
                    continue
                depth += 1
        except OSError:
            pass
        return depth, nbytes

    def _admit(self) -> None:
        """Raise :class:`QueueFull` when a new request would push the
        pending tier past its bounds."""
        limits = self.limits if self.limits is not None else QueueLimits.from_env()
        if limits.max_pending is None and limits.max_pending_bytes is None:
            return
        depth, nbytes = self.pending_load()
        if limits.max_pending is not None and depth >= limits.max_pending:
            overshoot = depth / max(limits.max_pending, 1)
            raise QueueFull(
                f"spool pending depth {depth} at its bound "
                f"{limits.max_pending}",
                retry_after=limits.retry_after * max(1.0, overshoot),
                reason="depth",
                observed=depth,
                limit=limits.max_pending,
            )
        if (
            limits.max_pending_bytes is not None
            and nbytes >= limits.max_pending_bytes
        ):
            raise QueueFull(
                f"spool pending bytes {nbytes} at the "
                f"{limits.max_pending_bytes}-byte budget",
                retry_after=limits.retry_after,
                reason="bytes",
                observed=nbytes,
                limit=limits.max_pending_bytes,
            )

    # -- submission --------------------------------------------------------
    def submit(self, request: JobRequest) -> str:
        """Enqueue a request; returns its job id.

        Content-addressed dedup: if an identical request is already
        anywhere in the spool, no new job is created and the existing
        id is returned (dedup is never rejected — it adds no work).  A
        dead-lettered identical request fast-fails with the typed
        :class:`CircuitOpenError` (breaker open); a genuinely new
        request passes admission control first and may be rejected
        with :class:`QueueFull`.
        """
        job_id = request.job_id()
        for state in ("done", "running", "pending", "failed"):
            if self._job_path(state, job_id).exists():
                return job_id
        entry = self._job_path("deadletter", job_id)
        if entry.exists():
            record = read_json(entry) or {}
            raise CircuitOpenError(
                job_id, str(entry), reason=record.get("error_kind")
            )
        self._admit()
        record = {
            "job_id": job_id,
            "request": request.to_dict(),
            "submitted_at": time.time(),
        }
        _atomic_json(self._job_path("pending", job_id), record)
        return job_id

    # -- daemon side -------------------------------------------------------
    def claim_batch(
        self, limit: int
    ) -> list[tuple[str, JobRequest, dict[str, Any]]]:
        """Atomically claim up to ``limit`` pending jobs, oldest first
        (``pending/`` is listed and stat-sorted once per call).

        Rename-based: of N daemons racing on one spool, exactly one
        ``os.replace`` succeeds per job.
        """
        claimed: list[tuple[str, JobRequest, dict[str, Any]]] = []
        if limit < 1:
            return claimed
        pending = self.root / "pending"
        try:
            candidates = sorted(
                pending.glob("*.json"), key=lambda p: p.stat().st_mtime
            )
        except OSError:
            return claimed
        for path in candidates:
            if len(claimed) >= limit:
                break
            target = self.root / "running" / path.name
            try:
                os.replace(path, target)
            except FileNotFoundError:
                continue  # another daemon won this one
            except OSError:
                continue
            record = read_json(target)
            if record is None or "request" not in record:
                # Unreadable request: fail it with evidence rather
                # than looping on it forever.
                status = JobStatus(
                    job_id=path.stem,
                    state="failed",
                    error="unreadable job request",
                    error_kind="CorruptRequest",
                    finished_at=time.time(),
                )
                self.finish(path.stem, status)
                continue
            try:
                request = JobRequest.from_dict(record["request"])
            except (KeyError, TypeError, ValueError) as exc:
                status = JobStatus(
                    job_id=path.stem,
                    state="failed",
                    request=dict(record.get("request") or {}),
                    error=f"invalid job request: {exc}",
                    error_kind="InvalidRequest",
                    finished_at=time.time(),
                )
                self.finish(path.stem, status)
                continue
            claimed.append((path.stem, request, record))
        return claimed

    def claim_next(self) -> tuple[str, JobRequest, dict[str, Any]] | None:
        """Claim the oldest pending job (``None`` if idle)."""
        batch = self.claim_batch(1)
        return batch[0] if batch else None

    def write_status(self, status: JobStatus) -> None:
        """Stream a progress snapshot for a running job (atomic)."""
        _atomic_json(self._status_path(status.job_id), status.to_dict())

    def finish(self, job_id: str, status: JobStatus) -> None:
        """Move a job to its terminal directory with its final status."""
        if status.state not in TERMINAL_STATES:
            raise ValueError(f"terminal state expected, got {status.state!r}")
        _atomic_json(self._job_path(status.state, job_id), status.to_dict())
        for leftover in (
            self._job_path("running", job_id),
            self._status_path(job_id),
        ):
            try:
                leftover.unlink()
            except OSError:
                pass

    def requeue(self, job_id: str, *, reason: str = "requeued") -> bool:
        """Move a running job back to pending (drain / orphan rescue).

        Pending is written before running is removed, so a crash in
        between leaves the job claimable (a duplicate pending entry
        loses the claim race and is cleaned by the winner's rename) —
        never lost.
        """
        src = self._job_path("running", job_id)
        record = read_json(src)
        if record is None:
            return False
        fresh = {
            "job_id": job_id,
            "request": record.get("request", {}),
            "submitted_at": float(record.get("submitted_at") or time.time()),
            reason: True,
        }
        _atomic_json(self._job_path("pending", job_id), fresh)
        for leftover in (src, self._status_path(job_id)):
            try:
                leftover.unlink()
            except OSError:
                pass
        return True

    def recover_orphans(self) -> list[str]:
        """Requeue running jobs whose worker daemon is gone.

        Called at daemon startup: a job stuck in ``running/`` whose
        recorded worker pid is dead (or that has no status at all) was
        orphaned by a crash; it goes back to ``pending`` so the work is
        not lost.

        The scan is serialized through an advisory ``.recover.lock``
        on the spool root: two daemons starting against one spool
        simultaneously would otherwise both observe the same orphan
        mid-requeue and double-enqueue it.  The loser skips — the
        winner's sweep covers the spool.
        """
        lock = FileLock(self.root / ".recover.lock")
        try:
            if not lock.try_acquire():
                return []
        except OSError:
            lock = None  # filesystem without locking: proceed unguarded
        orphans: list[str] = []
        try:
            for path in (self.root / "running").glob("*.json"):
                if path.name.endswith(".status.json"):
                    continue
                job_id = path.stem
                status = read_json(self._status_path(job_id))
                pid = (status or {}).get("worker", {}).get("daemon_pid")
                if (
                    pid is not None
                    and pid_alive(int(pid))
                    and pid != os.getpid()
                ):
                    continue  # genuinely still being worked on
                orphans.append(job_id)
                self.requeue(job_id, reason="recovered")
        finally:
            if lock is not None:
                lock.release()
        return orphans

    # -- dead-letter tier --------------------------------------------------
    def deadletter(
        self,
        job_id: str,
        status: JobStatus,
        *,
        workdir: Path | None = None,
    ) -> Path:
        """Quarantine a poison job with its forensic bundle.

        The record (stage provenance, attempt/exit-code history, the
        pressure/degradation trail) lands atomically at
        ``deadletter/<job_id>.json``; raw evidence files from the
        job's scratch directory (the last ``progress.json``, the
        child's ``error.json``) are copied into
        ``deadletter/<job_id>.bundle/``.  Once the entry exists, the
        per-digest circuit breaker is **open**: resubmissions of this
        request fast-fail until :meth:`deadletter_retry` or
        :meth:`deadletter_purge`.
        """
        status.state = "deadletter"
        bundle = self._bundle_path(job_id)
        if workdir is not None and workdir.is_dir():
            bundle.mkdir(parents=True, exist_ok=True)
            for name in ("progress.json", "error.json", "result.json"):
                src = workdir / name
                if src.is_file():
                    try:
                        shutil.copy2(src, bundle / name)
                    except OSError:
                        pass
        self.finish(job_id, status)
        return self._job_path("deadletter", job_id)

    def deadletter_list(self) -> list[str]:
        """Dead-lettered job ids (each one an open breaker)."""
        return sorted(
            p.stem
            for p in (self.root / "deadletter").glob("*.json")
        )

    def deadletter_show(self, job_id: str) -> dict[str, Any] | None:
        """The full forensic record of one dead-lettered job."""
        record = read_json(self._job_path("deadletter", job_id))
        if record is None:
            return None
        bundle = self._bundle_path(job_id)
        if bundle.is_dir():
            record["bundle"] = {
                p.name: read_json(p) for p in sorted(bundle.glob("*.json"))
            }
        return record

    def deadletter_retry(self, job_id: str) -> bool:
        """Close the breaker and re-admit the job (operator action).

        The entry and its bundle are removed and the original request
        goes back to ``pending`` — the one path by which a
        dead-lettered digest becomes runnable again.
        """
        src = self._job_path("deadletter", job_id)
        record = read_json(src)
        if record is None:
            return False
        fresh = {
            "job_id": job_id,
            "request": record.get("request", {}),
            "submitted_at": time.time(),
            "deadletter_retried": True,
        }
        _atomic_json(self._job_path("pending", job_id), fresh)
        try:
            src.unlink()
        except OSError:
            pass
        shutil.rmtree(self._bundle_path(job_id), ignore_errors=True)
        return True

    def deadletter_purge(self, job_id: str | None = None) -> list[str]:
        """Discard dead-letter entries (all of them when ``job_id`` is
        ``None``); their breakers close with the evidence."""
        targets = [job_id] if job_id is not None else self.deadletter_list()
        purged: list[str] = []
        for jid in targets:
            path = self._job_path("deadletter", jid)
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            except OSError:
                continue
            shutil.rmtree(self._bundle_path(jid), ignore_errors=True)
            purged.append(jid)
        return purged

    # -- client side ---------------------------------------------------
    def status(self, job_id: str) -> JobStatus | None:
        """The current status of a job, wherever it is in the spool.

        A job moves while it is probed.  The probe follows its
        lifecycle (pending → running → terminal), so a job renamed
        forward between two reads is found by a later one; a probe that
        misses everywhere is repeated once, which finds a job moved
        backward (a requeue, running → pending) behind it.
        """
        for _ in range(2):
            status = self._probe(job_id)
            if status is not None:
                return status
        return None

    def _probe(self, job_id: str) -> JobStatus | None:
        record = read_json(self._job_path("pending", job_id))
        if record is not None:
            return JobStatus(
                job_id=job_id,
                state="pending",
                request=dict(record.get("request") or {}),
                submitted_at=float(record.get("submitted_at") or 0.0),
            )
        if self._job_path("running", job_id).exists():
            data = read_json(self._status_path(job_id))
            if data is not None:
                data.setdefault("state", "running")
                return JobStatus.from_dict(data)
            record = read_json(self._job_path("running", job_id)) or {}
            return JobStatus(
                job_id=job_id,
                state="running",
                request=dict(record.get("request") or {}),
                submitted_at=float(record.get("submitted_at") or 0.0),
            )
        for state in TERMINAL_STATES:
            data = read_json(self._job_path(state, job_id))
            if data is not None:
                data.setdefault("state", state)
                return JobStatus.from_dict(data)
        return None

    def jobs(self) -> dict[str, list[str]]:
        """Job ids by state (spool overview)."""
        out: dict[str, list[str]] = {}
        for state in JOB_STATES:
            out[state] = sorted(
                p.stem
                for p in (self.root / state).glob("*.json")
                if not p.name.endswith(".status.json")
            )
        return out


# ----------------------------------------------------------------------
# Stale-spool garbage collection (``repro gc --spool``)
# ----------------------------------------------------------------------
def stale_spool_files(root: str | Path) -> list[Path]:
    """Spool litter left by dead daemons, pid-checked.

    Two classes, both attributable to a pid that no longer exists:

    * ``*.tmp<pid>`` files anywhere in the spool — torn atomic writes
      from a daemon/client killed between ``write_text`` and
      ``os.replace``;
    * ``work/<job_id>/`` scratch directories (holding ``progress.json``
      etc.) whose job is no longer running, or whose recorded worker
      daemon pid is dead.

    Files owned by live pids are never touched.
    """
    spool = Path(root).expanduser()
    stale: list[Path] = []
    if not spool.is_dir():
        return stale
    for sub in (*JOB_STATES, "health"):
        directory = spool / sub
        try:
            entries = list(directory.iterdir())
        except OSError:
            continue
        for path in entries:
            _, sep, pid_text = path.name.rpartition(".tmp")
            if not sep or not pid_text.isdigit():
                continue
            pid = int(pid_text)
            if pid != os.getpid() and not pid_alive(pid):
                stale.append(path)
    workroot = spool / "work"
    try:
        workdirs = [p for p in workroot.iterdir() if p.is_dir()]
    except OSError:
        workdirs = []
    queue = SpoolQueue.__new__(SpoolQueue)  # paths only; no mkdir
    queue.root = spool
    for workdir in workdirs:
        job_id = workdir.name
        running = spool / "running" / f"{job_id}.json"
        if not running.exists():
            stale.append(workdir)
            continue
        status = read_json(queue._status_path(job_id))
        pid = (status or {}).get("worker", {}).get("daemon_pid")
        if pid is None:
            continue  # claimed but unattributed yet: assume live
        if int(pid) == os.getpid() or pid_alive(int(pid)):
            continue
        stale.append(workdir)
    return stale


def sweep_stale_spool(root: str | Path, *, remove: bool = True) -> list[str]:
    """Reclaim dead daemons' spool litter; returns the affected names.

    With ``remove=False`` (``repro gc --dry-run``) only reports.
    Races with a concurrent sweep are benign — already-deleted entries
    are skipped.
    """
    swept: list[str] = []
    for path in stale_spool_files(root):
        if remove:
            try:
                if path.is_dir():
                    shutil.rmtree(path)
                else:
                    path.unlink()
            except FileNotFoundError:
                continue
            except OSError:
                continue
        swept.append(path.name)
    return swept
