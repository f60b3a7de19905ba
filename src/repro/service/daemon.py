"""The ``repro serve`` daemon: an overload-safe scenario-serving worker.

The daemon polls a :class:`~repro.service.queue.SpoolQueue` and has
**one execution path**: a free worker slot claims a batch of pending
jobs and starts **one supervised child process** for it.  The child
compiles the batch into one merged
:class:`~repro.pipeline.plan.StagePlan` — scenarios sharing a
mesh/levels prefix execute each shared stage exactly once — and runs
it serially, streaming per-job progress, result and error files.

Children start warm.  The daemon is multi-threaded and never forks
itself; it owns one single-threaded :mod:`multiprocessing` *forkserver*
process, launched once :meth:`ServeDaemon.serve_forever` has published
readiness and preloaded with everything a job imports
(:data:`_PRELOAD`).  Every child is a copy-on-write fork of that
server: it reaches :func:`_child_main` in milliseconds, nobody pays an
interpreter start or an import per batch, and it is as isolated as a
fresh interpreter was (own pid, own address space).  The daemon
process never loads NumPy or the pipeline: readiness waits only for
the standard library and the spool.  A fork inherits
the *server's* environment, frozen when the server started, so each
attempt is handed the daemon's environment as it stands when the
attempt starts — a changed ``REPRO_SERVE_STAGE_DELAY`` (or any other
variable read at run time) reaches the next attempt, as it did when
every child was a new interpreter.  The server exits with the daemon,
and :mod:`multiprocessing` restarts it if it dies in between.

The unit of failure is the child, never the daemon: a worker that
dies mid-stage (segfault, OOM-kill, a chaos harness's injected kill)
is observed as a child exit, its unfinished jobs are retried **one per
child** with the runtime's
:class:`~repro.resilience.retry.RetryPolicy` exponential backoff (a
poison job costs its batch-mates at most one attempt), and only an
exhausted budget surfaces as a typed terminal record — with the
per-stage provenance the job streamed before dying intact.

Robustness properties:

* **per-stage watchdog** — the child streams a progress record after
  every plan node; if no job of the batch makes progress within
  ``watchdog`` seconds the child is terminated and every unfinished
  job counts a worker death (retryable);
* **dead-letter quarantine** — a poison job (retry budget exhausted on
  retryable failures, or a worker deterministically killed at the same
  stage twice) moves to ``deadletter/`` with a forensic bundle instead
  of being forgotten, and its per-digest circuit breaker fast-fails
  resubmissions until an operator closes it;
* **drain lifecycle** — SIGTERM/SIGINT stops claiming, gives running
  children ``drain_grace`` seconds to finish, then terminates them and
  *requeues* their unfinished jobs (nothing lost; finished batch-mates
  stay ``done``), maintains liveness/readiness files under
  ``<spool>/health/``, and exits cleanly; a second signal force-quits
  (children killed, jobs requeued immediately — the spool state
  machine stays consistent either way);
* **graceful degradation** — a :class:`ResourceSentinel` samples
  machine-wide available memory and free disk on the spool/artifact
  volumes into ``OK/SOFT/HARD`` pressure states.  Under ``SOFT`` the
  daemon halves worker concurrency; under ``HARD`` it pauses claiming,
  withdraws readiness, and running children shed the in-memory store
  tier, which the job's ``degradation`` provenance records.  The job's
  ``pressure`` record carries the state it was claimed under, and
  results are bit-identical to the unpressured path (neither decision
  changes computed values);
* **crash-safe store** — the child runs against the cross-process
  artifact store, so a retried attempt reuses every stage the dead
  attempt already published, and concurrent daemons sharing a store
  never recompute one digest;
* **orphan recovery** — on startup, running jobs whose daemon pid is
  dead are requeued (serialized through the spool's advisory recover
  lock) and dead daemons' spool litter is swept.

Chaos hooks: a seeded
:class:`~repro.resilience.faults.FaultPlan` may be installed; its
``transient`` decisions kill a job's child process after the job's
first completed stage — deterministic worker death for the chaos
suite.  ``REPRO_SERVE_STAGE_DELAY`` (a row of
:data:`repro.util.env.KNOBS`, read by the daemon when an attempt
starts) makes that attempt's child linger after each plan node, giving
the signal/drain tests a deterministic mid-job window.
"""

from __future__ import annotations

import multiprocessing.forkserver
import os
import shutil
import signal
import socket
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..resilience.retry import RetryPolicy
from ..resilience.sentinel import (
    PressureSample,
    PressureState,
    ResourceSentinel,
)
from ..util.chain import STAGE_ORDER
from ..util.env import read
from ..util.filelock import pid_alive
from ..util.fsjson import atomic_write_json, read_json
from .queue import JobRequest, JobStatus, SpoolQueue, sweep_stale_spool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultPlan

__all__ = ["ServeDaemon", "read_health"]

#: Child exit codes (picked clear of Python/shell conventions).  With a
#: batch the code summarises the child (transient wins over permanent);
#: the per-job verdict is the job's own ``error.json``.
_EXIT_TRANSIENT = 75  # EX_TEMPFAIL: retryable typed failure
_EXIT_PERMANENT = 70  # EX_SOFTWARE: typed permanent failure
_EXIT_CHAOS = 86  # injected worker death (chaos harness)

#: Liveness heartbeats older than this many seconds read as dead.
LIVENESS_TTL = 30.0

#: Max age in seconds of the ``health/`` liveness/pressure files and of
#: a running job's status heartbeat.
HEALTH_INTERVAL = 1.0

#: Most jobs one child takes on: bounds what a single worker death can
#: cost and how long a batch-mate waits behind the others.
_MAX_BATCH = 8

#: What the forkserver imports once so that no job child imports it
#: again: this module, the pipeline with every stage module, and the
#: three a ``schedule`` job was measured to load lazily on top.  This
#: is the one place the compute stack loads: the daemon itself, like
#: the client, imports neither NumPy nor a compute module
#: (``tests/test_fresh_imports.py`` checks both sides).
_PRELOAD = (
    "repro.service.daemon",
    "repro.pipeline",
    "repro.mesh.chunked",
    "numpy.random",
    "numpy.ma",
)


def _child_main(
    jobs: list[dict[str, Any]],
    store_root: str | None,
    pressure_path: str,
    env: dict[str, str],
    stage_delay: float,
) -> None:
    """Batch body, run in a child forked from the preloaded server.

    The fork inherited the server's environment; ``env`` is the
    daemon's as of this attempt's start and replaces it before
    anything reads it.  ``stage_delay`` is the daemon's reading of
    ``REPRO_SERVE_STAGE_DELAY`` at that moment.

    ``jobs`` are ``{"request", "workdir", "kill_after"}`` records.  The
    batch is compiled into one merged plan and executed serially; after
    every plan node each job riding it gets a fresh ``progress.json``
    in its own workdir (the parent's watchdog heartbeat *and* the
    partial provenance a failed job reports), the job whose chain ends
    there an atomic ``result.json``, and every job through a failed
    node an ``error.json``.  Anything that kills the process outright
    is the parent's problem to observe.

    Degradation: at every node the child re-reads the daemon's
    ``pressure_path`` snapshot and, while it says ``HARD``, sheds the
    store's in-memory tier, recorded in the streamed ``degradation``
    provenance.
    """
    os.environ.clear()
    os.environ.update(env)
    try:
        from ..pipeline import (
            ArtifactStore,
            DagScheduler,
            NodeResult,
            compile_plan,
            default_store,
            get_scenario,
        )
        from ..resilience.errors import TransientError

        store = ArtifactStore(store_root) if store_root else default_store()
        degradation: list[str] = []
        exit_codes = {0}

        def fail(work: Path, exc: BaseException) -> None:
            transient = isinstance(exc, TransientError)
            kind = "TransientError" if transient else type(exc).__name__
            atomic_write_json(
                work / "error.json", {"kind": kind, "message": str(exc)}
            )
            exit_codes.add(_EXIT_TRANSIENT if transient else _EXIT_PERMANENT)

        planned: list[dict[str, Any]] = []  # index == plan job index
        scenarios = []
        for job in jobs:
            work = Path(job["workdir"])
            try:
                request = JobRequest.from_dict(job["request"])
                scenario = get_scenario(request.scenario, **request.options)
            except Exception as exc:  # bad request: fails alone
                fail(work, exc)
                continue
            scenarios.append(scenario)
            planned.append(
                {
                    "work": work,
                    "through": request.through,
                    "kill_after": job["kill_after"],
                    "stages": [],
                }
            )
        plan = compile_plan(
            scenarios, through=[job["through"] for job in planned]
        )

        def publish(job: dict[str, Any], key: str) -> None:
            caches = [s["cache"] for s in job["stages"]]
            result: dict[str, Any] = {
                "stages": job["stages"],
                "cache_hits": sum(c is not None for c in caches),
                "dedup": {
                    "shared": caches.count("shared"),
                    "store": caches.count("memory") + caches.count("disk"),
                    "computed": caches.count(None),
                },
            }
            if job["through"] == "schedule":
                # ``execute_stage`` has just put the node's object in
                # the memory tier (shed only after publishing).
                _, metrics = store.memory_get(key)
                result["metrics"] = {
                    "makespan": float(metrics.makespan),
                    "efficiency": float(metrics.efficiency),
                }
            if degradation:
                result["degradation"] = degradation
            if store.stats.degraded:
                result["store_degraded"] = store.stats.degraded
            atomic_write_json(job["work"] / "result.json", result)

        def on_node(node: NodeResult) -> None:
            if node.state != "done":
                for j in node.jobs:
                    fail(planned[j]["work"], node.error)
                return
            now = time.time()
            snap = read_json(pressure_path)
            hard = snap is not None and snap.get("state") == "HARD"
            if hard and not degradation:
                degradation.append("HARD: shed in-memory store tier in worker")
            riders = [planned[j] for j in node.jobs]
            for job in riders:
                # The first job through a computed node owns it; the
                # others rode it ("shared": plan-time prefix reuse,
                # distinct from a store hit).
                cache = (
                    node.cache
                    if node.cache is not None or job is riders[0]
                    else "shared"
                )
                job["stages"].append(
                    {
                        "stage": node.stage,
                        "digest": node.key,
                        "cache": cache,
                        "wall_time": (
                            0.0 if cache == "shared" else node.wall_time
                        ),
                        "finished_at": now,
                    }
                )
                atomic_write_json(
                    job["work"] / "progress.json",
                    {
                        "stages": job["stages"],
                        "heartbeat": now,
                        "degradation": degradation,
                    },
                )
            # Chaos dies between a stage's progress and its result, so
            # a killed job always has the stage on record, never done.
            if any(job["kill_after"] == node.stage for job in riders):
                os._exit(_EXIT_CHAOS)  # injected worker death
            for job in riders:
                if job["through"] == node.stage:
                    publish(job, node.key)
            if hard:
                store.clear_memory()
            if stage_delay > 0:
                time.sleep(stage_delay)

        DagScheduler(store, max_workers=1, on_node=on_node).execute(plan)
        if max(exit_codes):
            os._exit(max(exit_codes))
    except BaseException:
        # Last resort (import failure, broken workdir): die visibly so
        # the parent counts a worker death instead of hanging.
        os._exit(1)


def read_health(spool: str | Path) -> dict[str, Any]:
    """The health surface of a spool's daemon(s), for ``repro serve
    status --health`` and external probes.

    Returns ``{"live": bool, "ready": bool, "liveness": {...},
    "pressure": {...}}``; ``live`` requires a fresh heartbeat from a
    pid that still exists.
    """
    health = Path(spool).expanduser() / "health"
    liveness = read_json(health / "live.json")
    pressure = read_json(health / "pressure.json")
    live = False
    if liveness is not None:
        age = time.time() - float(liveness.get("at") or 0.0)
        pid = liveness.get("pid")
        live = (
            age <= LIVENESS_TTL
            and pid is not None
            and pid_alive(int(pid))
        )
    return {
        "live": live,
        "ready": (health / "ready.json").exists(),
        "liveness": liveness,
        "pressure": pressure,
    }


@dataclass
class _Job:
    """One claimed job under supervision (``status.state`` stays
    ``"running"`` until the router settles or requeues it)."""

    job_id: str
    request: JobRequest
    status: JobStatus
    seq: int  # claim order, the chaos plan's task index
    workdir: Path
    attempt: int = 0
    attempt_started: float = 0.0
    batch: int = 1  # jobs in the current attempt's child
    seen: float = 0.0  # mtime of the last progress.json folded in


class ServeDaemon:
    """Claim a batch → run it in one child → route each job → publish,
    forever (or bounded).

    Parameters
    ----------
    spool:
        Spool root directory (shared with clients) or a
        :class:`SpoolQueue`.
    store_root:
        Artifact-store root the job children run against (``None`` =
        each child memory-only; normally the shared ``--artifacts``
        dir).
    retry:
        :class:`RetryPolicy` for worker deaths and transient job
        failures (``max_retries`` per job, exponential ``backoff``).
        ``None`` uses ``RetryPolicy(max_retries=2)``.
    watchdog:
        Per-stage progress deadline in seconds; a child none of whose
        jobs streams progress for this long is terminated and its
        unfinished jobs retried.  ``None`` disables it.
    poll:
        Spool poll interval while idle.  A slot that frees up or a
        drain request ends the wait at once.
    workers:
        Concurrent job children, each under its own supervisor thread.
        A free slot claims ``min(8, ceil(pending / free slots))`` jobs
        as one batch, so one slot never starves the others.  ``SOFT``
        pressure halves the effective target; ``HARD`` pauses claiming.
    sentinel:
        :class:`ResourceSentinel` override (chaos tests inject
        synthetic probes here); ``None`` builds the default watching
        available memory and the spool/store volumes.
    drain_grace:
        Seconds a running child gets to finish after a drain signal
        before it is terminated and its unfinished jobs requeued.
    fault_plan:
        Optional seeded chaos hook (see module docstring).
    """

    def __init__(
        self,
        spool: str | Path | SpoolQueue,
        *,
        store_root: str | Path | None = None,
        retry: RetryPolicy | None = None,
        watchdog: float | None = None,
        poll: float = 0.2,
        workers: int = 1,
        sentinel: ResourceSentinel | None = None,
        drain_grace: float = 5.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.queue = spool if isinstance(spool, SpoolQueue) else SpoolQueue(spool)
        self.store_root = str(store_root) if store_root is not None else None
        self.retry = retry if retry is not None else RetryPolicy(max_retries=2)
        if watchdog is not None and watchdog <= 0:
            raise ValueError("watchdog deadline must be positive")
        self.watchdog = watchdog
        self.poll = poll
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.sentinel = (
            sentinel
            if sentinel is not None
            else ResourceSentinel(volumes=(self.queue.root, self.store_root))
        )
        if drain_grace < 0:
            raise ValueError("drain_grace must be >= 0")
        self.drain_grace = float(drain_grace)
        self.fault_plan = fault_plan
        self._job_seq = 0
        # Guards the counters the supervisor threads and the claim loop
        # share: _completed and _inflight move together.
        self._lock = threading.Lock()
        self._ctx = multiprocessing.get_context("forkserver")
        self._ctx.set_forkserver_preload(list(_PRELOAD))
        self._stop = threading.Event()
        self._force = threading.Event()
        # Set by a supervisor that frees its slot and by a drain
        # request: the claim loop sleeps on it, not through it.
        self._wake = threading.Event()
        self._stop_at = 0.0  # monotonic time of the first drain signal
        self._completed = 0
        self._requeued_on_drain = 0
        self._inflight = 0  # jobs under supervision
        self._busy = 0  # slots (supervisors) under way
        self._health_at = 0.0
        self._health_state: PressureState | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._stop.is_set()

    @property
    def forced(self) -> bool:
        return self._force.is_set()

    def request_drain(self) -> None:
        """Programmatic SIGTERM: stop claiming, finish-or-requeue."""
        if self._stop.is_set():
            self._force.set()
        else:
            self._stop_at = time.monotonic()
            self._stop.set()
        self._wake.set()

    def _on_signal(self, signum: int, frame: Any) -> None:
        self.request_drain()

    def _install_signals(self) -> dict[int, Any] | None:
        """SIGTERM/SIGINT → drain (second one → force).  Only possible
        from the main thread; elsewhere (tests driving the daemon from
        a thread) :meth:`request_drain` is the signal surface."""
        if threading.current_thread() is not threading.main_thread():
            return None
        prev: dict[int, Any] = {}
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                prev[sig] = signal.signal(sig, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover - defensive
                continue
        return prev

    # -- health surface ------------------------------------------------
    def _write_health(
        self, sample: PressureSample | None, *, ready: bool
    ) -> None:
        """Refresh ``health/``: liveness heartbeat, pressure snapshot,
        and the readiness marker (present iff the daemon claims)."""
        health = self.queue.root / "health"
        try:
            health.mkdir(parents=True, exist_ok=True)
            atomic_write_json(
                health / "live.json",
                {
                    "pid": os.getpid(),
                    "hostname": socket.gethostname(),
                    "at": time.time(),
                    "state": str(sample.state) if sample else "OK",
                    "draining": self.draining,
                    "inflight": self._inflight,
                    "completed": self._completed,
                    "requeued_on_drain": self._requeued_on_drain,
                },
            )
            if sample is not None:
                atomic_write_json(health / "pressure.json", sample.to_dict())
            ready_path = health / "ready.json"
            if ready:
                atomic_write_json(
                    ready_path, {"pid": os.getpid(), "at": time.time()}
                )
            else:
                ready_path.unlink(missing_ok=True)
        except OSError:  # health is best-effort; never takes jobs down
            pass

    def _target_workers(self, state: PressureState) -> int:
        """Degradation policy: full fleet under ``OK``, half (min 1)
        under ``SOFT``, claiming paused under ``HARD``."""
        if state >= PressureState.HARD:
            return 0
        if state >= PressureState.SOFT:
            return max(1, self.workers // 2)
        return self.workers

    def _sample_pressure(self) -> PressureSample:
        sample = self.sentinel.sample()
        now = time.monotonic()
        ready = not self.draining and sample.state < PressureState.HARD
        if (
            sample.state != self._health_state
            or now - self._health_at >= HEALTH_INTERVAL
        ):
            self._write_health(sample, ready=ready)
            self._health_at = now
            self._health_state = sample.state
        return sample

    # ------------------------------------------------------------------
    def recover(self) -> list[str]:
        """Requeue orphaned running jobs and sweep dead daemons' spool
        litter (call once at startup)."""
        orphans = self.queue.recover_orphans()
        for job_id in orphans:
            warnings.warn(
                f"requeued orphaned job {job_id} (its daemon is gone)",
                RuntimeWarning,
                stacklevel=2,
            )
        swept = sweep_stale_spool(self.queue.root)
        if swept:
            warnings.warn(
                f"swept {len(swept)} stale spool file(s) left by dead "
                "daemons",
                RuntimeWarning,
                stacklevel=2,
            )
        return orphans

    def serve_forever(
        self,
        *,
        max_jobs: int | None = None,
        idle_timeout: float | None = None,
    ) -> int:
        """Process jobs until a bound trips; returns the count of jobs
        brought to a terminal state.

        ``max_jobs`` stops after N jobs; ``idle_timeout`` stops after
        that many seconds without work.  A drain signal (SIGTERM/SIGINT or
        :meth:`request_drain`) stops claiming, lets running children
        finish within ``drain_grace`` seconds, requeues the rest, and
        returns.
        """
        self.recover()
        prev_handlers = self._install_signals()
        self._sample_pressure()  # publish health from the first moment
        done_base = self._completed
        threads: list[threading.Thread] = []
        idle_since = time.monotonic()
        try:
            # Readiness is out; the server's preload now overlaps the
            # wait for the first job instead of delaying either.
            multiprocessing.forkserver.ensure_running()
            while True:
                # Cleared before the state it announces is read: a slot
                # freed from here on ends this iteration's wait at once.
                self._wake.clear()
                threads = [t for t in threads if t.is_alive()]
                with self._lock:
                    busy = self._busy
                    taken = self._completed - done_base + self._inflight
                if busy:
                    idle_since = time.monotonic()
                if self._stop.is_set():
                    break
                # Sample every iteration — running children read the
                # published pressure.json at stage boundaries, so the
                # snapshot must stay fresh even when no claim is due.
                sample = self._sample_pressure()
                room = None if max_jobs is None else max_jobs - taken
                if room is not None and room <= 0:
                    if busy:
                        self._wake.wait(self.poll)
                        continue
                    break
                batch: list[tuple[str, JobRequest, dict[str, Any]]] = []
                free = self._target_workers(sample.state) - busy
                if free > 0:
                    # An even share of the backlog per free slot.
                    depth = self.queue.pending_load()[0]
                    limit = min(_MAX_BATCH, -(-depth // free))
                    if room is not None:
                        limit = min(limit, room)
                    if self.retry.max_retries < 1:
                        # A shared child's death costs every job in it
                        # an attempt; with none to spare, share nothing.
                        limit = min(limit, 1)
                    batch = self.queue.claim_batch(limit)
                if not batch:
                    if (
                        not busy
                        and idle_timeout is not None
                        and time.monotonic() - idle_since > idle_timeout
                    ):
                        break
                    self._wake.wait(self.poll)
                    continue
                idle_since = time.monotonic()
                jobs = self._adopt(batch, sample)
                worker = threading.Thread(
                    target=self._supervise,
                    args=(jobs,),
                    name=f"repro-serve-{jobs[0].job_id[:8]}",
                    daemon=True,
                )
                worker.start()
                threads.append(worker)
            self._drain(threads)
            return self._completed - done_base
        finally:
            self._write_health(
                self.sentinel.last_sample, ready=False
            )
            for sig, handler in (prev_handlers or {}).items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    continue

    def _drain(self, threads: list[threading.Thread]) -> None:
        """Wait out running supervisors; they finish-or-requeue their
        children on their own (``_run_attempt`` watches the drain
        events)."""
        # Probes see the drain (and readiness drop) when it starts, not
        # only once the last child is gone.
        self._write_health(self.sentinel.last_sample, ready=False)
        if self.draining and threads:
            warnings.warn(
                f"draining: {self._inflight} running job(s) get "
                f"{self.drain_grace:g}s to finish, then requeue",
                RuntimeWarning,
                stacklevel=2,
            )
        force_deadline: float | None = None
        while threads:
            if self._force.is_set() and force_deadline is None:
                force_deadline = time.monotonic() + 5.0
            for t in list(threads):
                t.join(timeout=0.1)
                if not t.is_alive():
                    threads.remove(t)
            if (
                force_deadline is not None
                and time.monotonic() > force_deadline
            ):  # pragma: no cover - defensive
                break

    # -- one batch -----------------------------------------------------
    def _adopt(
        self,
        batch: list[tuple[str, JobRequest, dict[str, Any]]],
        sample: PressureSample,
    ) -> list[_Job]:
        """Open the running-status records of a freshly claimed batch."""
        jobs: list[_Job] = []
        for job_id, request, record in batch:
            self._job_seq += 1
            status = JobStatus(
                job_id=job_id,
                state="running",
                request=request.to_dict(),
                submitted_at=float(record.get("submitted_at") or 0.0),
                started_at=time.time(),
                worker={
                    "daemon_pid": os.getpid(),
                    "hostname": socket.gethostname(),
                },
                pressure=sample.to_dict(),
            )
            jobs.append(
                _Job(
                    job_id=job_id,
                    request=request,
                    status=status,
                    seq=self._job_seq,
                    workdir=self.queue.workdir(job_id),
                )
            )
        with self._lock:
            self._inflight += len(jobs)
            self._busy += 1  # given back by _supervise
        return jobs

    def _supervise(self, jobs: list[_Job]) -> None:
        """Supervisor thread body: the batch in one child, then every
        job that child left to retry in a child of its own — a poison
        job takes its batch-mates down at most once."""
        try:
            retry = self._run_attempt(jobs)
            while retry:
                job = retry.pop(0)
                if self._stop.wait(self.retry.delay(job.attempt)):
                    # Draining: don't burn an attempt racing shutdown.
                    self._requeue(job)
                    continue
                retry += self._run_attempt([job])
        except Exception as exc:  # pragma: no cover - supervisor bug
            warnings.warn(
                f"supervisor for job {jobs[0].job_id} crashed: {exc}; "
                "requeueing its unfinished jobs",
                RuntimeWarning,
                stacklevel=2,
            )
            for job in jobs:
                if job.status.state == "running":
                    self._requeue(job)
        finally:
            # The slot is free before the loop hears of it; this
            # thread's last few microseconds alive are not a busy slot.
            with self._lock:
                self._busy -= 1
            self._wake.set()

    def _chaos_kill_stage(self, seq: int, attempt: int) -> str | None:
        """Seeded worker-death injection (chaos suite only)."""
        if self.fault_plan is None:
            return None
        hits = self.fault_plan.decide(seq, attempt)
        if any(s.kind == "transient" for s in hits):
            with self.fault_plan._lock:
                self.fault_plan.injected["worker_death"] += 1
            return STAGE_ORDER[0]
        return None

    def _run_attempt(self, group: list[_Job]) -> list[_Job]:
        """One supervised child over ``group``: fork, watch, route.

        Jobs are routed ``done`` the moment their ``result.json``
        lands; what is still open when the child exits (or is
        terminated by the watchdog or the drain) is routed from its
        ``error.json`` or the child's fate.  Returns the jobs the
        router wants retried.
        """
        specs: list[dict[str, Any]] = []
        for job in group:
            shutil.rmtree(job.workdir, ignore_errors=True)
            job.workdir.mkdir(parents=True, exist_ok=True)
            job.attempt_started = time.time()
            job.batch = len(group)
            job.seen = 0.0
            job.status.attempts = job.attempt + 1
            job.status.stages = []
            self.queue.write_status(job.status)
            specs.append(
                {
                    "request": job.request.to_dict(),
                    "workdir": str(job.workdir),
                    "kill_after": self._chaos_kill_stage(
                        job.seq, job.attempt
                    ),
                }
            )
        # What a fresh interpreter would have inherited at this moment.
        env = dict(os.environ)
        stage_delay = read("REPRO_SERVE_STAGE_DELAY")
        child = self._ctx.Process(
            target=_child_main,
            args=(
                specs,
                self.store_root,
                str(self.queue.root / "health" / "pressure.json"),
                env,
                stage_delay,
            ),
            daemon=True,
        )
        # A server killed a moment ago looks alive to multiprocessing
        # until it has finished dying, and its socket refuses the
        # request; the restarted server takes the repeat.
        refused_until = time.monotonic() + 5.0
        while True:
            try:
                child.start()
                break
            except (OSError, EOFError):
                if time.monotonic() > refused_until:
                    raise
                time.sleep(0.05)
        for job in group:
            job.status.worker["child_pid"] = child.pid
        open_jobs = list(group)
        last_progress = time.monotonic()
        fate = "death"
        while True:
            child.join(timeout=min(self.poll, 0.1))
            exited = not child.is_alive()
            if self._scan(open_jobs):
                last_progress = time.monotonic()
            if exited:
                break
            if self._force.is_set() or (
                self._stop.is_set()
                and time.monotonic() - self._stop_at >= self.drain_grace
            ):
                fate = "drained"
            elif (
                self.watchdog is not None
                and time.monotonic() - last_progress > self.watchdog
            ):
                fate = "timeout"
            else:
                continue
            self._terminate(child)
            # A job may have finished in the terminate window — a
            # complete result still counts as done, nothing wasted.
            self._scan(open_jobs)
            break
        code = child.exitcode
        if code == 255:
            # No exit status came back: the forkserver died under the
            # child, which may still run with nobody left to report it.
            # Counted a worker death, so it must not outlive the count.
            try:
                os.kill(child.pid, signal.SIGKILL)
            except OSError:
                pass
        child.close()
        if fate == "drained":
            kind, message = "Drained", "daemon draining; job requeued"
        elif fate == "timeout":
            kind = "StageTimeout"
            message = f"no stage progress for {self.watchdog:g}s"
        else:
            kind = "WorkerDeath"
            message = (
                f"worker died with exit code {code}"
                if code
                else "child exited cleanly but left no result"
            )
        retry: list[_Job] = []
        for job in open_jobs:
            detail = read_json(job.workdir / "error.json")
            if detail is None:
                outcome, detail = fate, {"kind": kind, "message": message}
            elif detail.get("kind") == "TransientError":
                outcome = "transient"
            else:
                outcome = "permanent"
            detail["exit_code"] = code
            if self._route(job, outcome, detail):
                retry.append(job)
        return retry

    def _scan(self, open_jobs: list[_Job]) -> bool:
        """Fold every open job's streamed progress into its running
        status and route the ones whose result landed (removing them
        from ``open_jobs``); whether any job made progress."""
        progressed = False
        for job in list(open_jobs):
            status = job.status
            progress_path = job.workdir / "progress.json"
            try:
                mtime = progress_path.stat().st_mtime
            except OSError:
                mtime = 0.0
            changed = mtime > job.seen
            if changed:
                job.seen = mtime
                progressed = True
                progress = read_json(progress_path) or {}
                status.stages = list(progress.get("stages") or [])
                for note in progress.get("degradation") or []:
                    if note not in status.degradation:
                        status.degradation.append(note)
            result = read_json(job.workdir / "result.json")
            now = time.time()
            if result is not None:
                open_jobs.remove(job)
                self._route(job, "done", result)
            elif (
                changed
                or now - (status.heartbeat or 0.0) >= HEALTH_INTERVAL
            ):
                status.heartbeat = now
                self.queue.write_status(status)
        return progressed

    def _route(self, job: _Job, outcome: str, detail: dict[str, Any]) -> bool:
        """The per-job outcome router; ``True`` = retry the job.

        Success → ``done``; a typed deterministic failure → ``failed``;
        a poison job — retry budget exhausted on retryable outcomes, or
        a worker killed at the same stage twice — → ``deadletter``
        (breaker opens); a drain mid-job requeues instead (state goes
        back to ``pending``).
        """
        status = job.status
        stage_reached = status.stages[-1]["stage"] if status.stages else None
        status.history.append(
            {
                "attempt": job.attempt + 1,
                "outcome": outcome,
                "kind": detail.get("kind"),
                "message": detail.get("message"),
                "exit_code": detail.get("exit_code"),
                "stage_reached": stage_reached,
                "batch": job.batch,
                "started_at": job.attempt_started,
                "finished_at": time.time(),
            }
        )
        retryable = outcome in ("death", "timeout", "transient")
        if outcome == "drained" or (retryable and self._stop.is_set()):
            self._requeue(job)
            return False
        same_stage_deaths = sum(
            1
            for e in status.history
            if e["outcome"] == "death" and e["stage_reached"] == stage_reached
        )
        poison = outcome == "death" and same_stage_deaths >= 2
        if retryable and not poison and job.attempt < self.retry.max_retries:
            job.attempt += 1
            delay = self.retry.delay(job.attempt)
            warnings.warn(
                f"job {job.job_id} attempt {job.attempt} failed "
                f"({outcome}: {detail.get('message')}); retrying"
                + (f" in {delay:.3g}s" if delay > 0 else ""),
                RuntimeWarning,
                stacklevel=2,
            )
            return True
        status.finished_at = time.time()
        if outcome == "done":
            status.state = "done"
            status.result = detail
            status.stages = list(detail.get("stages") or status.stages)
            for note in detail.get("degradation") or []:
                if note not in status.degradation:
                    status.degradation.append(note)
        else:
            # Terminal with the partial provenance the job streamed:
            # a typed deterministic failure, unless quarantined below.
            status.state = "failed"
            status.error = str(detail.get("message") or outcome)
            status.error_kind = str(detail.get("kind") or outcome)
        if retryable:
            # Poison job → dead-letter quarantine + open breaker.
            reason = (
                f"worker died at stage "
                f"{stage_reached or '<none>'} twice (deterministic)"
                if poison
                else f"retry budget exhausted "
                f"({self.retry.max_retries} retries)"
            )
            status.error = f"{status.error} [dead-lettered: {reason}]"
            entry = self.queue.deadletter(
                job.job_id, status, workdir=job.workdir
            )
            warnings.warn(
                f"dead-lettered job {job.job_id} ({reason}); breaker "
                f"open, evidence at {entry}",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            self.queue.finish(job.job_id, status)
        shutil.rmtree(job.workdir, ignore_errors=True)
        with self._lock:
            self._completed += 1
            self._inflight -= 1
        return False

    def _requeue(self, job: _Job) -> None:
        """Hand an unfinished job back to ``pending`` (drain)."""
        self.queue.requeue(job.job_id)
        job.status.state = "pending"
        shutil.rmtree(job.workdir, ignore_errors=True)
        with self._lock:
            self._requeued_on_drain += 1
            self._inflight -= 1

    @staticmethod
    def _terminate(child: multiprocessing.process.BaseProcess) -> None:
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():  # pragma: no cover - defensive
            child.kill()
            child.join(timeout=5.0)
