"""Workload ``serve_flood``: a closed-loop flood through ``repro serve``.

Each run starts ``python -m repro --artifacts DIR serve run --spool DIR
--workers min(2, nproc)`` in its default (child-process) mode on a
fresh spool and store, waits until ``read_health`` reports ready
(set-up), then one single-threaded client keeps 4 jobs outstanding —
spool files, not threads; ``ServiceClient.status`` polled every 10 ms
— over 48 submissions: the ``characteristics`` scenario at ``scale=7,
domains=16, processes=4, cores=4`` for 20 seeds × {SC_OC, MC_TL}, then
the first eight again (content-addressed dedup).  Each of the 40
distinct jobs is requested once more the moment it finishes: the warm
path of this workload.

Why: spool, child spawn and import, claims and publish are ~75 % of a
job here (compute 0.12 s of 0.49 s) and absent from every other
workload.
"""

from __future__ import annotations

import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from repro.pipeline import ArtifactStore, Pipeline, compile_plan, get_scenario
from repro.service import JobRequest, JobStatus, ServiceClient, SpoolQueue
from repro.service.daemon import read_health
from repro.service.queue import TERMINAL_STATES

from harness import (
    Context,
    Metric,
    Tracer,
    geomean,
    mean,
    mean_of_medians,
    median,
    peak_rss_mib,
    percentile,
    temp_dir,
)

SCENARIO = "characteristics"
BASE_OPTIONS = {"scale": 7, "domains": 16, "processes": 4, "cores": 4}
OUTSTANDING = 4
POLL_S = 0.010
#: Measured cost of one flood on the reference host, daemon start to
#: reaped.
NOMINAL_RUN_S = 13.0
READY_TIMEOUT_S = 60.0
FLOOD_TIMEOUT_S = 120.0
SAMPLED_RECOMPUTES = 4


def job_options(seed: int, quick: bool) -> tuple[list[dict[str, Any]], int]:
    """The distinct jobs of one flood in seed-shuffled order, and how
    many of the first are resubmitted at the end."""
    seeds, resubmits = (5, 2) if quick else (20, 8)
    jobs = [
        {**BASE_OPTIONS, "seed": 100 * seed + s, "strategy": st}
        for s in range(seeds)
        for st in ("SC_OC", "MC_TL")
    ]
    random.Random(seed).shuffle(jobs)
    return jobs, resubmits


class Daemon:
    """The serve daemon as a child process in a session of its own:
    started, waited ready, drained with SIGTERM; if it lingers, the
    whole session — job children included — is killed.  Always
    reaped."""

    def __init__(self, root: Path, *, dag: bool = False) -> None:
        self.spool = root / "spool"
        self.store = root / "store"
        self.args = [
            sys.executable,
            "-m",
            "repro",
            "--artifacts",
            str(self.store),
            "serve",
            "run",
            "--spool",
            str(self.spool),
            "--workers",
            str(min(2, os.cpu_count() or 1)),
        ] + (["--dag"] if dag else [])
        self.log = root / "daemon.stderr"
        self.proc: subprocess.Popen[bytes] | None = None
        self.setup_s = 0.0

    def __enter__(self) -> "Daemon":
        t0 = time.perf_counter()
        # stderr to a file: every job child announces partitioner
        # fallbacks there; one_run shows it only when a check fails.
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.args,
                stdout=subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,
            )
        try:
            while not read_health(self.spool)["ready"]:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"serve daemon exited {self.proc.returncode} "
                        "before it was ready"
                    )
                if time.perf_counter() - t0 > READY_TIMEOUT_S:
                    raise TimeoutError("serve daemon never became ready")
                time.sleep(0.005)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.setup_s = time.perf_counter() - t0
        return self

    def __exit__(self, *exc: Any) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def flood(
    ctx: Context,
    client: ServiceClient,
    submissions: list[dict[str, Any]],
) -> tuple[dict[str, JobStatus], list[float], list[float], float, int]:
    """The closed loop.  Returns terminal statuses by job id, the
    submit→terminal latency of every submission, the warm-request
    milliseconds, the wall, and how many submissions deduplicated onto
    an earlier job.

    A warm request — submit again (dedup) plus the status read that
    returns the stored result — is timed for each job right after it
    finishes, so the warm samples are spread over the flood like the
    cold ones (``harness.mean``) and are taken while the service is
    busy.
    """
    tr = ctx.tracer
    todo = list(submissions)
    outstanding: dict[str, tuple[float, dict[str, Any]]] = {}
    statuses: dict[str, JobStatus] = {}
    latencies: list[float] = []
    warm_ms: list[float] = []
    dedup = 0
    t0 = time.perf_counter()
    while todo or outstanding:
        if time.perf_counter() - t0 > FLOOD_TIMEOUT_S:
            ctx.checks.op(False, f"flood timed out, {len(outstanding)} stuck")
            break
        while todo and len(outstanding) < OUTSTANDING:
            options = todo.pop(0)
            submitted = time.perf_counter()
            with tr.span("service.client_submit", "service"):
                job_id = client.submit(SCENARIO, options=options)
            dedup += job_id in statuses
            outstanding[job_id] = (submitted, options)
        time.sleep(POLL_S)
        for job_id, (submitted, options) in list(outstanding.items()):
            with tr.span("service.client_status", "service"):
                status = client.status(job_id)
            if status is None or status.state not in TERMINAL_STATES:
                continue
            latencies.append(time.perf_counter() - submitted)
            del outstanding[job_id]
            if job_id in statuses:
                continue  # a resubmission: served by dedup already
            statuses[job_id] = status
            t1 = time.perf_counter()
            again = client.status(client.submit(SCENARIO, options=options))
            warm_ms.append(1e3 * (time.perf_counter() - t1))
            ctx.checks.op(
                again is not None and again.state == status.state,
                "finished job is not served again from the spool",
            )
    return statuses, latencies, warm_ms, time.perf_counter() - t0, dedup


def check_results(
    ctx: Context, jobs: list[dict[str, Any]], statuses: dict[str, JobStatus]
) -> None:
    """Every job done, its stage digests those the in-process plan
    derives for the same scenario; a seeded sample is recomputed
    in-process and must give the same makespan."""
    sample = set(
        random.Random(ctx.seed).sample(range(len(jobs)), SAMPLED_RECOMPUTES)
    )
    for i, options in enumerate(jobs):
        job_id = JobRequest(SCENARIO, dict(options)).job_id()
        status = statuses.get(job_id)
        if not ctx.checks.op(
            status is not None and status.state == "done",
            f"job {job_id} not done: "
            f"{status and (status.state, status.error)}",
        ):
            continue
        scenario = get_scenario(SCENARIO, **options)
        want = list(compile_plan([scenario]).job_stages[0].values())
        got = [s["digest"] for s in status.result["stages"]]
        ctx.checks.op(got == want, f"job {job_id}: stage digests differ")
        if i in sample:
            rec = Pipeline(ArtifactStore(None)).run(scenario)
            ctx.checks.op(
                status.result["metrics"]["makespan"] == rec.metrics.makespan,
                f"job {job_id}: makespan differs from the in-process run",
            )


def one_run(
    ctx: Context, seed: int, *, dag: bool = False
) -> dict[str, Any]:
    """Daemon up, flood, daemon down, checks."""
    jobs, resubmits = job_options(seed, ctx.quick)
    failed_before = ctx.checks.failed
    with temp_dir("serve") as root:
        with Daemon(root, dag=dag) as daemon:
            client = ServiceClient(SpoolQueue(daemon.spool))
            statuses, latencies, warm, wall, dedup = flood(
                ctx, client, jobs + jobs[:resubmits]
            )
        check_results(ctx, jobs, statuses)
        if ctx.checks.failed > failed_before:
            sys.stderr.write(daemon.log.read_text(errors="replace")[-4000:])
    ctx.checks.op(dedup == resubmits, f"{dedup} dedup hits, not {resubmits}")
    return {
        "setup_s": daemon.setup_s,
        "statuses": statuses,
        "latencies": latencies,
        "submissions": len(jobs) + resubmits,
        "wall": wall,
        "warm_ms": warm,
        "dedup": dedup,
    }


def job_cells() -> int:
    """Cells of the mesh every job partitions."""
    scenario = get_scenario(SCENARIO, **BASE_OPTIONS)
    return Pipeline(ArtifactStore(None)).run(scenario, through="mesh").mesh.num_cells


def run(ctx: Context) -> dict[str, Metric]:
    runs = [
        one_run(ctx, 1000 * ctx.seed + i)
        for i in range(ctx.repeats(NOMINAL_RUN_S))
    ]
    cells = job_cells()
    wall = mean([r["wall"] for r in runs])
    submissions = runs[0]["submissions"]
    warm = [r["warm_ms"] for r in runs]
    makespans = [
        s.result["metrics"]["makespan"]
        for r in runs
        for s in r["statuses"].values()
        if s.state == "done" and s.request["options"]["strategy"] == "MC_TL"
    ]
    return {
        "setup_s": Metric(mean([r["setup_s"] for r in runs]), len(runs)),
        "cells_per_s": Metric(cells * submissions / wall, len(runs)),
        "scenarios_per_s": Metric(submissions / wall, len(runs)),
        # Per flood the median job, then the mean over floods.
        "latency_p50_s": Metric(
            mean([median(r["latencies"]) for r in runs]),
            submissions * len(runs),
        ),
        "warm_chain_ms": Metric(
            mean_of_medians(warm), sum(map(len, warm))
        ),
        "sim_makespan": Metric(geomean(makespans), len(makespans)),
        # The daemon and the job children it reaped; this process has
        # no other children.
        "peak_rss_mib": Metric(peak_rss_mib(resource.RUSAGE_CHILDREN)),
    }


# ---------------------------------------------------------------------
# traced pass


def queue_microbench(tr: Tracer, root: Path, n: int) -> dict[str, Metric]:
    """Direct ``SpoolQueue`` calls on a spool no daemon watches."""
    queue = SpoolQueue(root / "microbench")
    requests = [
        JobRequest(SCENARIO, {**BASE_OPTIONS, "seed": i}) for i in range(n)
    ]
    for name, call in (
        ("service.submit", queue.submit),
        ("service.dedup_submit", queue.submit),
        ("service.status", lambda r: queue.status(r.job_id())),
    ):
        for request in requests:
            with tr.span(name, "service"):
                call(request)
    for _ in requests:
        with tr.span("service.claim", "service"):
            job_id, _, _ = queue.claim_next()
        status = JobStatus(job_id=job_id, state="done", finished_at=time.time())
        with tr.span("service.finish", "service"):
            queue.finish(job_id, status)
    return {
        f"{name}_ms": Metric(
            1e3 * median([s.duration for s in tr.named(name)]), n
        )
        for name in (
            "service.submit",
            "service.dedup_submit",
            "service.status",
            "service.claim",
            "service.finish",
        )
    }


def dag_flag_exists() -> bool:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "run", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return "--dag" in out.stdout


def run_traced(ctx: Context) -> dict[str, Metric]:
    tr = ctx.tracer
    seed = 1000 * ctx.seed
    base = one_run(ctx.untraced(), seed)

    tr.run = "serve_flood/flood"
    traced = one_run(ctx, seed)
    # The daemon's timestamps are time.time(); spans are perf_counter.
    skew = time.perf_counter() - time.time()
    computed = [
        s
        for s in traced["statuses"].values()
        if s.state == "done" and s.started_at and s.finished_at
    ]
    for s in computed:
        marks = [t + skew for t in (s.submitted_at, s.started_at, s.finished_at)]
        tr.add("service.queue_wait", "service", marks[0], marks[1], run=s.job_id)
        tr.add("service.run", "service", marks[1], marks[2], run=s.job_id)
    run_s = [s.finished_at - s.started_at for s in computed]
    compute_s = [
        sum(float(st["wall_time"]) for st in s.stages) for s in computed
    ]

    tr.run = "serve_flood/queue"
    with temp_dir("serve") as root:
        m = queue_microbench(tr, root, 10 if ctx.quick else 50)

    n = len(computed)
    m["service.queue_wait_s"] = Metric(
        median([s.started_at - s.submitted_at for s in computed]), n
    )
    m["service.run_s"] = Metric(median(run_s), n)
    m["service.compute_s"] = Metric(median(compute_s), n)
    m["service.overhead_s"] = Metric(
        median([r - c for r, c in zip(run_s, compute_s)]), n
    )
    m["service.latency_p90_s"] = Metric(
        percentile(traced["latencies"], 90), len(traced["latencies"])
    )
    m["service.dedup_hits"] = Metric(
        float(traced["dedup"]), traced["submissions"]
    )
    m["service.store_hits"] = Metric(
        float(
            sum(
                1
                for s in computed
                for st in s.stages
                if st.get("cache") in ("memory", "disk")
            )
        ),
        n,
    )
    m["service.retries"] = Metric(
        float(sum(s.attempts - 1 for s in computed)), n
    )
    by_strategy = {
        st: geomean(
            [
                s.result["metrics"]["makespan"]
                for s in computed
                if s.request["options"]["strategy"] == st
            ]
        )
        for st in ("SC_OC", "MC_TL")
    }
    m["flusim.makespan_ratio"] = Metric(
        by_strategy["MC_TL"] / by_strategy["SC_OC"], n
    )
    m["trace_overhead_frac"] = Metric(traced["wall"] / base["wall"] - 1.0)
    # Omitted (the driver form prints 0), not failed, once the flag
    # is gone.
    if dag_flag_exists():
        dag = one_run(ctx.untraced(), seed, dag=True)
        m["service.dag_jobs_per_s"] = Metric(
            dag["submissions"] / dag["wall"], dag["submissions"]
        )
    return m
