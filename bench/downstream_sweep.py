"""Workload ``downstream_sweep``: sixteen scenarios behind one partition.

Set-up computes cylinder scale 11 (90,088 cells), MC_TL, 128 domains on
16 processes, through ``partition`` into a disk store.  One pass is a
``run_batch`` of the sweep scheme{euler, heun} × iterations{1, 4} ×
scheduler{eager, cp} × cores{1, 8} on a copy of that prefix store: 23
plan nodes, 20 computed, 3 read from disk.

Why: partition is a disk *hit*, so ``taskgraph``, ``flusim``, plan and
scheduler dedup and store writes do all the work — the workload on
which a partitioner speed-up must show no change.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path
from typing import Any

from repro.pipeline import (
    ArtifactStore,
    Pipeline,
    Scenario,
    compile_plan,
    expand_sweep,
    run_batch,
)

import layers
from harness import (
    Context,
    Metric,
    geomean,
    mean,
    mean_of_medians,
    peak_rss_mib,
    temp_dir,
)

SWEEP = {
    "scheme": ["euler", "heun"],
    "iterations": [1, 4],
    "scheduler": ["eager", "cp"],
    "cores": [1, 8],
}
#: Measured cost of one pass on the reference host.
NOMINAL_PASS_S = 5.5


def scenarios(seed: int, quick: bool) -> list[Scenario]:
    base = Scenario.standard(
        "cylinder",
        domains=32 if quick else 128,
        processes=16,
        cores=1,
        strategy="MC_TL",
        scale=10 if quick else 11,
        seed=seed,
    )
    out = expand_sweep(base, SWEEP)
    random.Random(seed).shuffle(out)
    return out


def build_prefix(ctx: Context, root: Path, sweep: list[Scenario]) -> float:
    """Mesh → partition into ``root``; returns the seconds it took."""
    t0 = time.perf_counter()
    rec = Pipeline(ArtifactStore(root)).run(sweep[0], through="partition")
    elapsed = time.perf_counter() - t0
    layers.check_labels(
        ctx.checks, rec.mesh, rec.tau, rec.scenario, rec.decomp.domain
    )
    return elapsed


def sweep_pass(
    ctx: Context,
    prefix: Path,
    work: Path,
    sweep: list[Scenario],
    store_cls: Any = ArtifactStore,
) -> tuple[list[Any], float]:
    """One ``run_batch`` on a fresh copy of the prefix store."""
    shutil.copytree(prefix, work)
    store = store_cls(work)
    t0 = time.perf_counter()
    with ctx.tracer.span("pipeline.run_batch", "pipeline"):
        records = run_batch(sweep, store=store)
    wall = time.perf_counter() - t0
    verified: set[str] = set()
    for rec in records:
        ctx.checks.op(
            rec.provenance["partition"].cache in ("disk", "shared"),
            "sweep recomputed the partition",
        )
        layers.check_schedule(ctx.checks, rec.metrics, "sweep")
        digest = rec.provenance["taskgraph"].digest
        if digest not in verified:
            verified.add(digest)
            layers.check_dag(
                ctx.checks, rec.dag, rec.mesh, rec.tau, rec.scenario
            )
    return records, wall


def warm_requests(ctx: Context, work: Path, records: list[Any]) -> list[float]:
    """Each scenario again, from the filled store alone."""
    out = []
    for ref in records:
        t0 = time.perf_counter()
        rec = Pipeline(ArtifactStore(work)).run(ref.scenario)
        out.append(1e3 * (time.perf_counter() - t0))
        ctx.checks.op(
            rec.all_cached and rec.metrics.makespan == ref.metrics.makespan,
            "warm scenario differs from its computed run",
        )
    return out


def run(ctx: Context) -> dict[str, Metric]:
    """Every pass is the same batch on a fresh copy of the prefix
    store, followed by its sixteen warm requests, so cold and warm
    samples are spread across the invocation (``harness.mean``)."""
    sweep = scenarios(ctx.seed, ctx.quick)
    passes = ctx.repeats(NOMINAL_PASS_S)
    walls = []
    warm: list[list[float]] = []  # [pass][scenario]
    first: list[Any] = []
    with temp_dir("sweep") as root:
        setup_s = build_prefix(ctx, root / "prefix", sweep)
        for i in range(passes):
            work = root / f"pass{i}"
            records, wall = sweep_pass(ctx, root / "prefix", work, sweep)
            walls.append(wall)
            warm.append(warm_requests(ctx, work, records))
            first = first or records
            ctx.checks.op(
                [r.metrics.makespan for r in records]
                == [r.metrics.makespan for r in first],
                "sweep pass differs from the first",
            )
    cells = sum(r.mesh.num_cells for r in records)
    wall = mean(walls)
    return {
        "setup_s": Metric(setup_s),
        "cells_per_s": Metric(cells / wall, passes),
        "scenarios_per_s": Metric(len(sweep) / wall, passes),
        "latency_p50_s": Metric(wall, passes),
        "warm_chain_ms": Metric(
            mean_of_medians(warm), sum(map(len, warm))
        ),
        "sim_makespan": Metric(
            geomean([r.metrics.makespan for r in records]), len(records)
        ),
        "peak_rss_mib": Metric(peak_rss_mib()),
    }


def run_traced(ctx: Context) -> dict[str, Metric]:
    tr = ctx.tracer
    sweep = scenarios(ctx.seed, ctx.quick)
    with temp_dir("sweep") as root:
        build_prefix(ctx, root / "prefix", sweep)
        _, base_wall = sweep_pass(
            ctx.untraced(), root / "prefix", root / "base", sweep
        )

        tr.run = "downstream_sweep/pipeline"
        with tr.span("pipeline.plan", "pipeline"):
            plan = compile_plan(sweep)
        records, wall = sweep_pass(
            ctx,
            root / "prefix",
            root / "traced",
            sweep,
            lambda path: layers.TracedStore(path, tr),
        )
        # One entry per plan node: a rider's "shared" never overrides
        # the provenance of the job that ran the node.
        nodes: dict[str, tuple[str, str | None]] = {}
        for rec in records:
            for name, sr in rec.provenance.items():
                if sr.cache != "shared" or sr.digest not in nodes:
                    nodes[sr.digest] = (name, sr.cache)
        store = ArtifactStore(root / "traced")
        computed = [(n, d) for d, (n, c) in nodes.items() if c is None]
        compute_s = sum(
            (store.sidecar(n, d) or {}).get("wall_time", 0.0)
            for n, d in computed
        )
        partition_s = sum(
            r.provenance["partition"].wall_time for r in records
        )

        tr.run = "downstream_sweep/layers"
        dags: dict[str, Any] = {}
        for rec in records:
            key = rec.provenance["taskgraph"].digest
            dag, metrics = layers.traced_downstream(
                tr,
                ctx.checks,
                rec.scenario,
                rec.mesh,
                rec.tau,
                rec.decomp,
                dag=dags.get(key),
            )
            dags[key] = dag
            ctx.checks.op(
                metrics.makespan == rec.metrics.makespan,
                "layer-by-layer schedule differs from the pipeline's",
            )

    m = layers.layer_metrics(tr, [])
    m.update(layers.store_metrics(tr))
    n = len(records)
    m["partitioning.share_of_chain"] = Metric(partition_s / wall, n)
    m["pipeline.plan_s"] = Metric(tr.total("pipeline.plan"))
    m["pipeline.plan_nodes"] = Metric(float(len(plan)))
    m["pipeline.stages_computed"] = Metric(float(len(computed)), len(nodes))
    m["pipeline.stages_hit"] = Metric(
        float(len(nodes) - len(computed)), len(nodes)
    )
    m["pipeline.overhead_s"] = Metric(wall - compute_s)
    m["trace_overhead_frac"] = Metric(wall / base_wall - 1.0)
    return m
