"""Workload ``scale_chain``: one large chain per fresh process.

``Scenario.standard("cylinder", 8, 8, 4, strategy="MC_TL", scale=12)``
— 357,256 cells, 4 temporal levels — mesh → schedule through a
memory-only store.  Every run is a fresh child process, so it has its
own RSS high-water and pays its own interpreter start and imports
(counted as set-up; the timed interval covers the chain only).

Why: the partition layer used the other way round from
``paper_chains`` — few parts on a large graph whose working set is
past the cache — and the only workload where mesh generation and dual
construction register (~5–8 % of the wall).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any

from harness import (
    Checks,
    Context,
    Metric,
    Tracer,
    geomean,
    mean,
)

SCALE = 12
QUICK_SCALE = 10
#: Measured cost of one child on the reference host, start to exit.
NOMINAL_RUN_S = 9.0
#: Warm requests come in batches timed back to back with as many
#: reference ops (see ``harness.yardstick_ms``): 40 × 50 requests, ~0.3 s.
WARM_BATCHES = 40
WARM_BATCH = 50
CHILD_TIMEOUT_S = 150.0


def spawn(seed: int, scale: int, traced: bool) -> dict[str, Any]:
    """Run one child to completion; it is killed on timeout and always
    reaped.  Returns its report plus ``setup_s``, spawn to ready."""
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, __file__, str(seed), str(scale), str(int(traced))],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"scale_chain child exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned
    return report


def run(ctx: Context) -> dict[str, Metric]:
    scale = QUICK_SCALE if ctx.quick else SCALE
    runs = ctx.repeats(NOMINAL_RUN_S)
    reports = [spawn(1000 * ctx.seed + i, scale, False) for i in range(runs)]
    for r in reports:
        ctx.checks.absorb(r["checks"])
    wall = mean([r["wall"] for r in reports])
    raw = ", ".join(f"{r['warm_raw_ms']:.4f}" for r in reports)
    print(
        f"bench: scale_chain warm request, unscaled ms: {raw}",
        file=sys.stderr,
    )
    return {
        "setup_s": Metric(mean([r["setup_s"] for r in reports]), runs),
        "cells_per_s": Metric(reports[0]["cells"] / wall, runs),
        "scenarios_per_s": Metric(1.0 / wall, runs),
        "latency_p50_s": Metric(wall, runs),
        "warm_chain_ms": Metric(
            mean([r["warm_ms"] for r in reports]),
            runs * WARM_BATCHES * WARM_BATCH,
        ),
        "sim_makespan": Metric(
            geomean([r["makespan"] for r in reports]), runs
        ),
        "peak_rss_mib": Metric(
            mean([r["peak_rss_mib"] for r in reports]), runs
        ),
    }


def run_traced(ctx: Context) -> dict[str, Metric]:
    scale = QUICK_SCALE if ctx.quick else SCALE
    report = spawn(1000 * ctx.seed, scale, True)
    ctx.checks.absorb(report["checks"])
    ctx.tracer.extend(report["spans"], run="scale_chain/layers")
    return {k: Metric(*v) for k, v in report["per_layer"].items()}


def child_main(seed: int, scale: int, traced: bool) -> dict[str, Any]:
    """The body of one child: imports, then the timed chain, then the
    untimed checks and the warm (memory-hit) re-requests."""
    import layers
    from harness import (
        median,
        peak_rss_mib,
        quiet_quality_warnings,
        reference_op,
        scrub_environment,
        yardstick_ms,
    )

    scrub_environment()
    quiet_quality_warnings()
    from repro.pipeline import ArtifactStore, Pipeline, Scenario

    ready_at = time.time()
    checks = Checks()
    scenario = Scenario.standard(
        "cylinder", 8, 8, 4, strategy="MC_TL", scale=scale, seed=seed
    )
    pipe = Pipeline(ArtifactStore(None))
    t0 = time.perf_counter()
    rec = pipe.run(scenario)
    wall = time.perf_counter() - t0
    rss = peak_rss_mib()  # before the checks rebuild the dual graph

    layers.check_record(checks, rec)
    pipe.run(scenario)  # first re-request warms the hit path itself
    warm_s, reference_s = [], []
    for _ in range(WARM_BATCHES):
        t0 = time.perf_counter()
        again = [pipe.run(scenario) for _ in range(WARM_BATCH)]
        t1 = time.perf_counter()
        for _ in range(WARM_BATCH):
            reference_op()
        reference_s.append(time.perf_counter() - t1)
        warm_s.append(t1 - t0)
        for r in again:
            checks.op(
                r.all_cached and r.metrics.makespan == rec.metrics.makespan,
                "warm chain differs from its cold run",
            )
    report: dict[str, Any] = {
        "ready_at": ready_at,
        "wall": wall,
        "cells": rec.mesh.num_cells,
        "makespan": rec.metrics.makespan,
        "peak_rss_mib": rss,
        "warm_ms": yardstick_ms(warm_s, reference_s),
        "warm_raw_ms": 1e3 * median(warm_s) / WARM_BATCH,
    }
    if traced:
        tracer = Tracer()
        out = layers.traced_chain(tracer, checks, scenario)
        checks.op(
            layers.same_outputs(rec, out),
            "layer-by-layer chain differs from the pipeline's",
        )
        per_layer = layers.layer_metrics(tracer, [out])
        per_layer["trace_overhead_frac"] = Metric(out.wall / wall - 1.0)
        report["per_layer"] = {
            k: (m.value, m.n) for k, m in per_layer.items()
        }
        report["spans"] = tracer.to_dicts()
    report["checks"] = checks.to_dict()
    return report


if __name__ == "__main__":
    _seed, _scale, _traced = sys.argv[1:4]
    print(json.dumps(child_main(int(_seed), int(_scale), _traced == "1")))
