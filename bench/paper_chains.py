"""Workload ``paper_chains``: the paper's own scenarios, cold then warm.

One *pass* is six cold chains — {cylinder, cube: 16 domains on 16
processes × 32 cores; pprime_nozzle: 12 domains on 6 processes × 4
cores} × {SC_OC, MC_TL} at registry scale (136,686 cells) — each a
``Pipeline(ArtifactStore(dir)).run`` against a fresh store directory.
Warm passes re-request the same six scenarios from that directory
through a fresh ``Pipeline`` + ``ArtifactStore``, so all five stages
are disk hits.

Why: many parts on small graphs, with one constraint and with four;
partition is ≥95 % of the wall; the store is written cold and read
warm.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.pipeline import (
    STAGE_INPUTS,
    STAGE_ORDER,
    STAGES,
    ArtifactStore,
    Pipeline,
    Scenario,
    compile_plan,
    stage_digest,
)

import layers
from harness import (
    Context,
    Metric,
    geomean,
    mean,
    mean_of_medians,
    median,
    peak_rss_mib,
    percentile,
    temp_dir,
    time_import_repro,
)

#: (mesh, domains, processes, cores per process) — Fig 7/10, Fig 9's
#: cube twin, and the Fig 5/12 nozzle validation cluster.
CLUSTERS = (
    ("cylinder", 16, 16, 32),
    ("cube", 16, 16, 32),
    ("pprime_nozzle", 12, 6, 4),
)
STRATEGIES = ("SC_OC", "MC_TL")

#: Measured cost of one cold pass on the reference host (2 CPUs, no
#: numba); sizes the pass count from ``--seconds``.
NOMINAL_PASS_S = 5.0
WARM_PASSES = 20


def scenarios(seed: int) -> list[Scenario]:
    """The six chains of one pass, in a seed-shuffled order; ``seed``
    is also the partition and schedule seed."""
    out = [
        Scenario.standard(mesh, dom, proc, cores, strategy=st, seed=seed)
        for mesh, dom, proc, cores in CLUSTERS
        for st in STRATEGIES
    ]
    random.Random(seed).shuffle(out)
    return out


def cold_pass(
    ctx: Context, store_dir: Path, seed: int, store_cls: Any = ArtifactStore
) -> tuple[list[Any], list[float]]:
    """Six cold chains on a fresh directory: records and chain walls.
    Checks run between chains, outside every timed interval."""
    records, walls = [], []
    for sc in scenarios(seed):
        t0 = time.perf_counter()
        with ctx.tracer.span("pipeline.run", "pipeline"):
            rec = Pipeline(store_cls(store_dir)).run(sc)
        walls.append(time.perf_counter() - t0)
        layers.check_record(ctx.checks, rec)
        records.append(rec)
    return records, walls


def warm_passes(
    ctx: Context,
    store_dir: Path,
    cold: list[Any],
    passes: int,
    store_cls: Any = ArtifactStore,
) -> list[float]:
    """Milliseconds per all-hit chain; each must reproduce its cold
    twin's digests, labels and makespan from disk alone."""
    out = []
    for _ in range(passes):
        for ref in cold:
            t0 = time.perf_counter()
            with ctx.tracer.span("pipeline.warm_run", "pipeline"):
                rec = Pipeline(store_cls(store_dir)).run(ref.scenario)
            out.append(1e3 * (time.perf_counter() - t0))
            same = (
                rec.all_cached
                and all(
                    rec.provenance[s].digest == ref.provenance[s].digest
                    for s in STAGE_ORDER
                )
                and np.array_equal(rec.decomp.domain, ref.decomp.domain)
                and rec.metrics.makespan == ref.metrics.makespan
            )
            ctx.checks.op(same, "warm chain differs from its cold run")
    return out


def run(ctx: Context) -> dict[str, Metric]:
    """Untraced: the end-to-end metrics.

    Each pass is one interpreter-start timing, six cold chains on
    their own seed, and that pass's share of the warm passes — cold,
    warm and set-up samples all spread across the whole invocation
    (``harness.mean`` says why).
    """
    passes = ctx.repeats(NOMINAL_PASS_S)
    warm_each = 1 if ctx.quick else max(1, WARM_PASSES // passes)
    setup: list[float] = []
    cold: list[list[float]] = []  # [pass][chain]
    warm: list[list[float]] = []  # [pass][sample]
    mc_makespans: list[float] = []
    with temp_dir("paper") as root:
        for i in range(passes):
            setup.append(time_import_repro())
            records, walls = cold_pass(
                ctx, root / f"cold{i}", 1000 * ctx.seed + i
            )
            cold.append(walls)
            warm.append(
                warm_passes(ctx, root / f"cold{i}", records, warm_each)
            )
            mc_makespans += [
                r.metrics.makespan
                for r in records
                if r.scenario.partition.strategy == "MC_TL"
            ]
    cells = sum(r.mesh.num_cells for r in records)
    total = sum(map(sum, cold))
    return {
        "setup_s": Metric(mean(setup), passes),
        "cells_per_s": Metric(passes * cells / total, passes),
        "scenarios_per_s": Metric(passes * len(records) / total, passes),
        # Per pass the median chain, then the mean over passes.
        "latency_p50_s": Metric(
            mean([median(walls) for walls in cold]), passes * len(records)
        ),
        "warm_chain_ms": Metric(
            mean_of_medians(warm), sum(map(len, warm))
        ),
        "sim_makespan": Metric(geomean(mc_makespans), len(mc_makespans)),
        "peak_rss_mib": Metric(peak_rss_mib()),
    }


def hash_chain(sc: Scenario) -> None:
    """The five content addresses of one scenario, derived the way the
    plan compiler derives them."""
    digests: dict[str, str] = {}
    for name in STAGE_ORDER:
        stage = STAGES[name]
        digests[name] = stage_digest(
            stage.name,
            stage.version,
            getattr(sc, name),
            tuple(digests[u] for u in STAGE_INPUTS[name]),
        )


def run_traced(ctx: Context) -> dict[str, Metric]:
    """Traced: the per-layer metrics.

    One untraced cold pass (the overhead baseline), one cold pass
    through the pipeline with a span-recording store, the same six
    scenarios layer by layer, then the warm passes with the recording
    store.
    """
    tr = ctx.tracer
    seed = 1000 * ctx.seed
    off = ctx.untraced()

    def store_cls(root: Path) -> ArtifactStore:
        return layers.TracedStore(root, tr)

    with temp_dir("paper") as root:
        _, base_walls = cold_pass(off, root / "base", seed)

        tr.run = "paper_chains/pipeline"
        plan_nodes = 0
        for sc in scenarios(seed):
            with tr.span("pipeline.plan", "pipeline"):
                plan_nodes += len(compile_plan([sc]))
            with tr.span("pipeline.hash", "pipeline"):
                hash_chain(sc)
        records, traced_walls = cold_pass(ctx, root / "traced", seed, store_cls)
        compute_s = 0.0
        store = ArtifactStore(root / "traced")
        for rec in records:
            for name, sr in rec.provenance.items():
                if not sr.hit:
                    compute_s += (store.sidecar(name, sr.digest) or {}).get(
                        "wall_time", 0.0
                    )

        tr.run = "paper_chains/layers"
        chains = []
        shared: dict[str, tuple[Any, Any]] = {}
        for rec in records:
            mesh, tau = shared.get(rec.scenario.mesh.name, (None, None))
            out = layers.traced_chain(
                tr, ctx.checks, rec.scenario, mesh=mesh, tau=tau
            )
            shared[rec.scenario.mesh.name] = (out.mesh, out.tau)
            ctx.checks.op(
                layers.same_outputs(rec, out),
                "layer-by-layer chain differs from the pipeline's",
            )
            chains.append(out)

        tr.run = "paper_chains/warm"
        warm = warm_passes(
            ctx,
            root / "traced",
            records,
            3 if ctx.quick else WARM_PASSES,
            store_cls,
        )

    m = layers.layer_metrics(tr, chains)
    m.update(layers.store_metrics(tr))
    by_strategy = {
        st: geomean(
            [
                r.metrics.makespan
                for r in records
                if r.scenario.partition.strategy == st
            ]
        )
        for st in STRATEGIES
    }
    n = len(records)
    m["flusim.makespan_ratio"] = Metric(
        by_strategy["MC_TL"] / by_strategy["SC_OC"], n
    )
    m["pipeline.plan_s"] = Metric(tr.total("pipeline.plan"), n)
    m["pipeline.plan_nodes"] = Metric(float(plan_nodes), n)
    m["pipeline.hash_s"] = Metric(tr.total("pipeline.hash"), n)
    hits = sum(r.cache_hits for r in records)
    m["pipeline.stages_computed"] = Metric(
        float(sum(len(r.provenance) for r in records) - hits), n
    )
    m["pipeline.stages_hit"] = Metric(float(hits), n)
    m["pipeline.warm_chain_p90_ms"] = Metric(percentile(warm, 90), len(warm))
    m["pipeline.overhead_s"] = Metric(sum(traced_walls) - compute_s, n)
    m["trace_overhead_frac"] = Metric(
        sum(traced_walls) / sum(base_walls) - 1.0, n
    )
    return m
