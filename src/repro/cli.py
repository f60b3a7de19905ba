"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment <name>``
    Run one experiment harness (the choices derive from the
    experiment registry, :data:`repro.experiments.EXPERIMENTS`) and
    print its report and the verdict of each of its claims.
``reproduce [name ...]``
    Run registry rows (default: all) over the scoreboard's seeds,
    write ``REPRODUCTION.json`` and print its markdown tables.
``pipeline``
    Run the typed mesh→partition→DAG→schedule pipeline on a named
    scenario, optionally sweeping options (``--sweep
    domains=32,64,128``) and printing per-stage cache provenance
    (``--explain``); ``pipeline scenarios`` lists the registry.
``gantt``
    Simulate a case and print the composite-process Gantt chart for
    both strategies.
``mesh <name>``
    Generate a replica mesh, print its summary, optionally save it.
``campaign``
    Run a multi-iteration solver campaign with optional physics
    guards, fault injection, checkpointing and resume.
``fuzz``
    Run the seeded adversarial fuzzing harness (partition contracts,
    fast-vs-reference kernel differentials, task-DAG invariants).
``serve``
    The overload-safe scenario job service over a filesystem spool:
    ``serve run`` starts the daemon (drains on SIGTERM/SIGINT, sheds
    load under resource pressure), ``serve submit``/``status``/
    ``result`` are the client side (content-addressed dedup, typed
    JobFailed with partial provenance, worker-death retries,
    admission-control rejections with a retry-after hint), ``serve
    status --health`` reads the daemon's liveness/readiness/pressure
    files, and ``serve deadletter list|show|retry|purge`` operates the
    poison-job quarantine and its circuit breakers.
``store doctor``
    Inspect (or ``--flush``) the on-disk artifact store: entries,
    bytes, active/stale claims, quarantined corruption.
``gc --spool DIR``
    Sweep the spool litter of dead daemons (tmp files, orphaned work
    dirs).

The global ``--artifacts DIR`` option (before the subcommand) enables
the content-addressed on-disk artifact store for every command that
executes the pipeline chain, so meshes/partitions/task graphs are
computed once and reused across invocations; ``--artifacts default``
uses ``~/.cache/repro`` (or ``$REPRO_ARTIFACTS``).

User-facing failures (bad paths, invalid sizes, corrupt checkpoints)
exit nonzero with a one-line message; pass ``--debug`` (before the
subcommand) to re-raise with the full traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .util.chain import STAGE_ORDER

__all__ = ["main"]


def _apply_artifacts(args: argparse.Namespace) -> None:
    """Install a disk-backed default store when ``--artifacts`` was
    given (``default`` resolves to ``$REPRO_ARTIFACTS`` /
    ``~/.cache/repro``)."""
    root = getattr(args, "artifacts", None)
    if root is None:
        return
    from .pipeline import ArtifactStore, default_cache_root, set_default_store

    path = default_cache_root() if root == "default" else root
    set_default_store(ArtifactStore(path))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.registry import run_experiment

    _apply_artifacts(args)
    print(run_experiment(args.name, scale=args.scale))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.scoreboard import reproduce

    _apply_artifacts(args)
    print(reproduce(args.names))
    return 0


def _parse_option_value(key: str, raw: str):
    """Parse one scenario option value from the command line."""
    if raw.lower() in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .pipeline import (
        SCENARIOS,
        expand_sweep,
        get_scenario,
        run_batch,
    )

    _apply_artifacts(args)

    if args.action == "scenarios":
        for name, sc in SCENARIOS.items():
            print(
                f"{name:>18s}: mesh={sc.mesh.name} "
                f"domains={sc.partition.domains} "
                f"processes={sc.partition.processes} "
                f"cores={sc.schedule.cores} "
                f"strategy={sc.partition.strategy}"
            )
        return 0

    overrides = {}
    for item in args.set or []:
        key, _, raw = item.partition("=")
        if not _:
            raise ValueError(f"--set expects key=value, got {item!r}")
        overrides[key] = _parse_option_value(key, raw)
    base = get_scenario(args.scenario, **overrides)

    sweep: dict[str, list] = {}
    for item in args.sweep or []:
        key, _, raw = item.partition("=")
        if not _ or not raw:
            raise ValueError(
                f"--sweep expects key=v1,v2,..., got {item!r}"
            )
        sweep[key] = [
            _parse_option_value(key, v) for v in raw.split(",")
        ]

    import dataclasses

    def option_of(sc, key: str):
        if key == "mesh":
            return sc.mesh.name
        if key == "seed":
            return sc.partition.seed
        for f in dataclasses.fields(sc):
            cfg = getattr(sc, f.name)
            if key in {g.name for g in dataclasses.fields(cfg)}:
                return getattr(cfg, key)
        return "?"

    scenarios = expand_sweep(base, sweep)
    records = run_batch(
        scenarios, n_jobs=args.jobs, through=args.through
    )
    for sc, rec in zip(scenarios, records):
        swept = " ".join(f"{k}={option_of(sc, k)}" for k in sweep)
        head = f"scenario {args.scenario}" + (f" [{swept}]" if swept else "")
        if rec.metrics is not None:
            print(
                f"{head}: makespan {rec.metrics.makespan:.1f}, "
                f"efficiency {rec.metrics.efficiency:.3f}, "
                f"cache hits {rec.cache_hits}/{len(rec.provenance)}"
            )
        else:
            print(
                f"{head}: through={args.through}, "
                f"cache hits {rec.cache_hits}/{len(rec.provenance)}"
            )
        if args.explain:
            print(rec.explain())
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from .experiments.common import run_flusim
    from .viz import render_process_gantt

    _apply_artifacts(args)
    for strategy in ("SC_OC", "MC_TL"):
        rec = run_flusim(
            args.mesh,
            args.domains,
            args.processes,
            args.cores,
            strategy,
            scale=args.scale,
        )
        print(f"=== {strategy}: makespan {rec.metrics.makespan:.0f}, "
              f"efficiency {rec.metrics.efficiency:.2f} ===")
        print(render_process_gantt(rec.trace, rec.dag, width=args.width))
        print()
    return 0


def _cmd_mesh(args: argparse.Namespace) -> int:
    from .experiments.common import standard_case
    from .mesh import format_table1_row, level_statistics, save_mesh

    _apply_artifacts(args)
    mesh, tau = standard_case(args.name, scale=args.scale)
    print(format_table1_row(args.name.upper(), level_statistics(mesh, tau)))
    print(mesh.summary())
    if args.map:
        from .viz import render_level_map

        print("\ntemporal-level map (paper Fig. 3 analogue):")
        print(render_level_map(mesh, tau, width=72, height=30))
    if args.output:
        save_mesh(mesh, args.output)
        print(f"saved to {args.output}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import numpy as np

    from .experiments.common import standard_case
    from .resilience import (
        FaultPlan,
        FaultSpec,
        GuardConfig,
        find_latest_checkpoint,
    )
    from .runtime import RetryPolicy
    from .solver import blast_wave
    from .solver.driver import SimulationDriver

    _apply_artifacts(args)
    if args.iterations < 1:
        raise ValueError(f"--iterations must be >= 1, got {args.iterations}")
    mesh, _ = standard_case(args.mesh, scale=args.scale)

    guard = None
    if args.guard:
        guard = GuardConfig(
            max_drift=args.max_drift,
            max_consecutive_rollbacks=args.max_rollbacks,
        )
    retry = None
    if args.retries:
        retry = RetryPolicy(max_retries=args.retries, backoff=args.backoff)
    fault_plan = None
    specs = []
    if args.fault_transient > 0:
        specs.append(FaultSpec("transient", args.fault_transient))
    if args.fault_straggler > 0:
        specs.append(
            FaultSpec("straggler", args.fault_straggler, delay=0.002)
        )
    if args.fault_poison > 0:
        specs.append(FaultSpec("poison", args.fault_poison))
    if specs:
        fault_plan = FaultPlan(specs=specs, seed=args.fault_seed)

    threaded = args.threaded or fault_plan or args.watchdog is not None
    executor = "threaded" if threaded else "serial"
    resilience = dict(
        guard=guard,
        executor=executor,
        cores_per_process=args.cores,
        fault_plan=fault_plan,
        retry=retry,
        watchdog=args.watchdog,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        debug_verify_dag=args.verify_dag,
    )

    if args.resume:
        if args.checkpoint_dir is None:
            raise ValueError("--resume needs --checkpoint-dir")
        # validate=True test-loads candidates newest-first and falls
        # back past corrupt/truncated ones with a warning.
        latest = find_latest_checkpoint(args.checkpoint_dir, validate=True)
        if latest is None:
            raise ValueError(
                f"no checkpoint found in {args.checkpoint_dir} "
                "(corrupt checkpoints are skipped with a warning)"
            )
        # 0 (the default) means "inherit the interval the checkpoint
        # was written with".
        resilience["checkpoint_every"] = args.checkpoint_every or None
        driver = SimulationDriver.from_checkpoint(mesh, latest, **resilience)
        print(f"resumed from {latest} (iteration {driver.iteration})")
    else:
        driver = SimulationDriver(
            mesh,
            blast_wave(mesh),
            num_domains=args.domains,
            num_processes=args.processes,
            strategy=args.strategy,
            seed=args.seed,
            **resilience,
        )

    result = driver.run(args.iterations)
    totals = result.state.conserved_total(mesh)
    elapsed = sum(r.elapsed for r in result.records)
    print(
        f"campaign: {args.iterations} iterations "
        f"({result.records[0].iteration}..{result.records[-1].iteration}) "
        f"on {args.mesh}, strategy {driver.strategy}, "
        f"executor {executor}"
    )
    print(
        f"  elapsed {elapsed:.3f}s, repartitions "
        f"{result.num_repartitions}, level drift "
        f"{result.level_drift_fraction(mesh.num_cells):.4f}"
    )
    print(f"  health: {result.health.summary()}")
    with np.printoptions(precision=6):
        print(f"  conserved totals: {totals}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import run_fuzz

    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")

    progress = None
    if args.progress_every > 0:
        def progress(i: int, total: int) -> None:
            if i % args.progress_every == 0:
                print(f"fuzz: seed {args.start + i} ({i}/{total})")

    report = run_fuzz(args.seeds, start=args.start, progress=progress)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_serve_deadletter(args: argparse.Namespace) -> int:
    from .service import SpoolQueue

    queue = SpoolQueue(args.spool)
    sub = args.sub or "list"
    if sub == "list":
        entries = queue.deadletter_list()
        for job_id in entries:
            record = queue.deadletter_show(job_id) or {}
            print(
                f"{job_id}  attempts={record.get('attempts')}  "
                f"[{record.get('error_kind')}] {record.get('error')}"
            )
        print(f"deadletter: {len(entries)} quarantined job(s)")
        return 0
    if sub == "show":
        if not args.job_id:
            raise ValueError("serve deadletter show needs --job-id")
        record = queue.deadletter_show(args.job_id)
        if record is None:
            print(
                f"repro: error: no dead-letter entry {args.job_id}",
                file=sys.stderr,
            )
            return 1
        print(json.dumps(record, indent=2))
        return 0
    if sub == "retry":
        if not args.job_id:
            raise ValueError("serve deadletter retry needs --job-id")
        if not queue.deadletter_retry(args.job_id):
            print(
                f"repro: error: no dead-letter entry {args.job_id}",
                file=sys.stderr,
            )
            return 1
        print(
            f"deadletter: re-admitted {args.job_id} (breaker closed)"
        )
        return 0
    # purge
    purged = queue.deadletter_purge(args.job_id or None)
    for job_id in purged:
        print(f"deadletter: purged {job_id}")
    print(f"deadletter: purged {len(purged)} entr(y/ies)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServeDaemon, ServiceClient

    if args.action == "deadletter":
        return _cmd_serve_deadletter(args)

    if args.action == "run":
        from .resilience.retry import RetryPolicy

        daemon = ServeDaemon(
            args.spool,
            store_root=args.artifacts,
            retry=RetryPolicy(
                max_retries=args.retries, backoff=args.backoff
            ),
            watchdog=args.watchdog,
            workers=args.workers,
            drain_grace=args.drain_grace,
        )
        n = daemon.serve_forever(
            max_jobs=args.max_jobs, idle_timeout=args.idle_timeout
        )
        if daemon.forced:
            print("serve: force-quit while draining", file=sys.stderr)
        elif daemon.draining:
            print("serve: drained cleanly")
        print(f"serve: processed {n} job(s)")
        return 1 if daemon.forced else 0

    if args.action == "status" and args.health:
        from .service import read_health

        health = read_health(args.spool)
        print(json.dumps(health, indent=2))
        return 0 if health["live"] and health["ready"] else 1

    client = ServiceClient(args.spool)
    if args.action == "submit":
        if args.scenario is None:
            raise ValueError("serve submit needs --scenario")
        options = {}
        for item in args.set or []:
            key, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(f"--set expects key=value, got {item!r}")
            options[key] = _parse_option_value(key, raw)
        job_id = client.submit(
            args.scenario,
            options=options,
            through=args.through,
            block=args.block,
            timeout=args.timeout,
        )
        print(job_id)
        if not args.wait:
            return 0
        args.job_id = job_id  # fall through to the result path

    if args.action in ("submit", "result"):
        from .resilience.errors import JobFailedError

        if not args.job_id:
            raise ValueError(f"serve {args.action} needs --job-id")
        try:
            result = client.result(args.job_id, timeout=args.timeout)
        except JobFailedError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 1
        for s in result.get("stages") or []:
            print(
                f"{s['stage']:>10s}  {s['digest'][:16]}  "
                f"{(s.get('cache') or 'computed'):<8s} "
                f"{1e3 * float(s.get('wall_time') or 0.0):9.2f} ms"
            )
        dedup = result.get("dedup")
        if dedup:
            print(
                f"dedup: computed={dedup.get('computed', 0)} "
                f"store={dedup.get('store', 0)} "
                f"shared={dedup.get('shared', 0)}"
            )
        metrics = result.get("metrics")
        if metrics:
            print(
                f"makespan {metrics['makespan']:.1f}, "
                f"efficiency {metrics['efficiency']:.3f}"
            )
        if result.get("store_degraded"):
            print(
                f"warning: store degraded to memory-only "
                f"({result['store_degraded']})",
                file=sys.stderr,
            )
        return 0

    # status
    if not args.job_id:
        # Spool overview with the aggregate per-stage dedup counts —
        # how much work the daemon actually avoided, split into store
        # cache hits vs shared-prefix reuse inside merged batch plans.
        states = client.queue.jobs()
        parts = ", ".join(
            f"{state}={len(ids)}"
            for state, ids in sorted(states.items())
            if ids
        )
        print(f"spool {client.queue.root}: {parts or 'empty'}")
        dedup: dict[str, dict[str, int]] = {}
        for job_id in states.get("done", []):
            st = client.queue.status(job_id)
            if st is None:
                continue
            for s in st.stages or []:
                cache = s.get("cache")
                bucket = (
                    "shared"
                    if cache == "shared"
                    else "store"
                    if cache in ("memory", "disk")
                    else "computed"
                )
                d = dedup.setdefault(
                    s["stage"],
                    {"computed": 0, "store": 0, "shared": 0},
                )
                d[bucket] += 1
        if dedup:
            print("per-stage dedup over done jobs:")
            for name in STAGE_ORDER:
                d = dedup.get(name)
                if d is None:
                    continue
                print(
                    f"{name:>10s}  computed={d['computed']}  "
                    f"store={d['store']}  shared={d['shared']}"
                )
        return 0
    status = client.status(args.job_id)
    if status is None:
        print(f"repro: error: unknown job {args.job_id}", file=sys.stderr)
        return 1
    line = f"{status.job_id}  {status.state}  attempts={status.attempts}"
    if status.stages:
        line += "  stages=" + ",".join(s["stage"] for s in status.stages)
        shared = sum(
            1 for s in status.stages if s.get("cache") == "shared"
        )
        store_hits = sum(
            1
            for s in status.stages
            if s.get("cache") in ("memory", "disk")
        )
        if shared or store_hits:
            line += f"  dedup=store:{store_hits},shared:{shared}"
    if status.degradation:
        line += "  degraded=" + ";".join(status.degradation)
    if status.error:
        line += f"  error[{status.error_kind}]={status.error}"
    print(line)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .pipeline import ArtifactStore, default_cache_root

    root = args.artifacts or default_cache_root()
    store = ArtifactStore(root)
    report = store.doctor(flush=args.flush)
    print(report.summary())
    return 0 if report.healthy else 1


def _cmd_gc(args: argparse.Namespace) -> int:
    from .service import sweep_stale_spool

    verb = "would remove" if args.dry_run else "removed"
    swept = sweep_stale_spool(args.spool, remove=not args.dry_run)
    for path in swept:
        print(f"{verb} stale spool litter {path}")
    print(f"gc: {verb} {len(swept)} stale spool file(s)/dir(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise errors with the full traceback",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="enable the on-disk artifact store at DIR "
        "('default' = $REPRO_ARTIFACTS or ~/.cache/repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .experiments.registry import available

    p = sub.add_parser(
        "experiment",
        help="run one experiment harness (choices from the registry)",
    )
    p.add_argument("name", choices=available())
    p.add_argument("--scale", type=int, default=None, help="mesh max_depth")
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="workers for every partition's bisection tree "
        "(default: REPRO_N_JOBS or one per CPU)",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("reproduce", help="score registry rows over seeds 0-3")
    p.add_argument("names", nargs="*", metavar="NAME", help="default: all")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser(
        "pipeline",
        help="run the typed mesh→partition→DAG→schedule pipeline "
        "with content-addressed caching",
    )
    p.add_argument(
        "action",
        choices=["run", "scenarios"],
        help="'run' a scenario (with optional sweeps) or list the "
        "registered 'scenarios'",
    )
    p.add_argument(
        "--scenario",
        default="characteristics",
        help="scenario registry name (see 'pipeline scenarios')",
    )
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one scenario option (domains=64, strategy=MC_TL, "
        "scale=7, cores=none, ...); repeatable",
    )
    p.add_argument(
        "--sweep",
        action="append",
        metavar="KEY=V1,V2,...",
        help="sweep one option over a value list (cross product when "
        "repeated); runs go through the batch runner",
    )
    p.add_argument(
        "--through",
        default="schedule",
        choices=STAGE_ORDER,
        help="stop the chain after this stage",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print per-stage digests, cache source and wall time",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="workers for each round of a sweep's plan nodes and for "
        "every partition's bisection tree (default: REPRO_N_JOBS or "
        "one per CPU)",
    )
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("gantt", help="print Gantt charts for both strategies")
    p.add_argument("--mesh", default="cylinder")
    p.add_argument("--domains", type=int, default=32)
    p.add_argument("--processes", type=int, default=8)
    p.add_argument("--cores", type=int, default=8)
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--scale", type=int, default=None)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="workers for every partition's bisection tree "
        "(default: REPRO_N_JOBS or one per CPU)",
    )
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser("mesh", help="generate and inspect a replica mesh")
    p.add_argument("name", choices=["cylinder", "cube", "pprime_nozzle", "uniform"])
    p.add_argument("--scale", type=int, default=None)
    p.add_argument("--output", default=None, help="save as .npz")
    p.add_argument(
        "--map", action="store_true", help="print the ASCII τ map"
    )
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser(
        "campaign",
        help="run a multi-iteration campaign (guards, faults, checkpoints)",
    )
    p.add_argument("--mesh", default="cube")
    p.add_argument("--scale", type=int, default=None, help="mesh max_depth")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--domains", type=int, default=8)
    p.add_argument("--processes", type=int, default=4)
    p.add_argument("--strategy", default="MC_TL")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threaded",
        action="store_true",
        help="run on the threaded runtime (implied by fault injection "
        "and --watchdog)",
    )
    p.add_argument("--cores", type=int, default=2, help="threads per process")
    p.add_argument(
        "--guard",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="post-iteration physics guards with rollback",
    )
    p.add_argument(
        "--max-drift",
        type=float,
        default=1e-4,
        help="relative conserved-total drift bound per iteration",
    )
    p.add_argument(
        "--max-rollbacks",
        type=int,
        default=3,
        help="consecutive rollbacks before giving up",
    )
    p.add_argument(
        "--retries", type=int, default=3, help="per-task retry budget (0=off)"
    )
    p.add_argument(
        "--backoff", type=float, default=0.001, help="base retry backoff [s]"
    )
    p.add_argument(
        "--watchdog",
        type=float,
        default=None,
        help="per-task deadline in seconds (implies --threaded)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None, help="directory for checkpoints"
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="checkpoint every N iterations (needs --checkpoint-dir)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest checkpoint in --checkpoint-dir",
    )
    p.add_argument(
        "--fault-transient",
        type=float,
        default=0.0,
        help="injected transient-failure rate per task",
    )
    p.add_argument(
        "--fault-straggler",
        type=float,
        default=0.0,
        help="injected straggler rate per task",
    )
    p.add_argument(
        "--fault-poison",
        type=float,
        default=0.0,
        help="injected NaN-poisoning rate per task",
    )
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument(
        "--verify-dag",
        action="store_true",
        help="audit every generated task graph (debug; raises on "
        "invariant violations)",
    )
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "fuzz",
        help="run the adversarial fuzzing harness (contracts + "
        "differential oracle checks)",
    )
    p.add_argument(
        "--seeds", type=int, default=25, help="number of seeds to run"
    )
    p.add_argument(
        "--start", type=int, default=0, help="first seed (campaign offset)"
    )
    p.add_argument(
        "--progress-every",
        type=int,
        default=0,
        help="print a heartbeat every N seeds (0 = silent)",
    )
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="overload-safe scenario job service over a filesystem spool",
    )
    p.add_argument(
        "action",
        choices=["run", "submit", "status", "result", "deadletter"],
        help="'run' the daemon, client-side 'submit'/'status'/'result', "
        "or operate the 'deadletter' quarantine",
    )
    p.add_argument(
        "sub",
        nargs="?",
        default=None,
        choices=["list", "show", "retry", "purge"],
        help="deadletter subaction (default: list)",
    )
    p.add_argument(
        "--spool",
        required=True,
        metavar="DIR",
        help="spool directory shared by daemon and clients",
    )
    p.add_argument(
        "--scenario",
        default=None,
        help="scenario registry name (submit)",
    )
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one scenario option (submit); repeatable",
    )
    p.add_argument(
        "--through",
        default="schedule",
        choices=STAGE_ORDER,
        help="stop the chain after this stage (submit)",
    )
    p.add_argument(
        "--wait",
        action="store_true",
        help="after submit, block for the result",
    )
    p.add_argument(
        "--block",
        action="store_true",
        help="submit: on a full queue, honor the retry-after hint and "
        "resubmit instead of failing",
    )
    p.add_argument(
        "--health",
        action="store_true",
        help="status: report the daemon's liveness/readiness/pressure "
        "files (exit 0 iff live and ready)",
    )
    p.add_argument(
        "--job-id",
        default=None,
        help="job id (status/result/deadletter show|retry|purge)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="max seconds to wait for a result",
    )
    p.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="daemon: stop after N jobs (default: run forever)",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="daemon: stop after this many idle seconds",
    )
    p.add_argument(
        "--watchdog",
        type=float,
        default=300.0,
        help="daemon: per-stage progress deadline in seconds",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="daemon: retry budget per job (worker deaths, transients)",
    )
    p.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="daemon: base retry backoff in seconds",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="daemon: concurrent job children, each running one claimed "
        "batch as a merged stage plan (SOFT pressure halves this, HARD "
        "pauses claiming)",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        help="daemon: seconds a running job gets to finish after "
        "SIGTERM/SIGINT before it is requeued",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "store",
        help="inspect and repair the on-disk artifact store",
    )
    p.add_argument(
        "action", choices=["doctor"], help="'doctor' inspects the store"
    )
    p.add_argument(
        "--flush",
        action="store_true",
        help="also clear stale claims, quarantined entries and tmp litter",
    )
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser(
        "gc",
        help="sweep a spool's litter left by dead daemons",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="report stale litter without removing it",
    )
    p.add_argument(
        "--spool",
        required=True,
        metavar="DIR",
        help="the spool whose stale tmp files and orphaned work dirs "
        "to sweep",
    )
    p.set_defaults(func=_cmd_gc)

    args = parser.parse_args(argv)
    from .util.forkpool import pinned_n_jobs

    try:
        # ``--jobs`` holds for this command only, in every partition
        # it runs; no process default outlives it.
        with pinned_n_jobs(getattr(args, "jobs", None)):
            return args.func(args)
    except BrokenPipeError:  # e.g. `repro ... | head`
        return 0
    except (ValueError, OSError, RuntimeError) as exc:
        # RuntimeError covers the resilience hierarchy (checkpoint,
        # guard, timeout errors); --debug re-raises for a traceback.
        if args.debug:
            raise
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
