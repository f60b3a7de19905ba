"""Paper-scale benchmark: the full mesh→dual→partition chain at 1M+ cells.

The paper's production meshes are 6.4M (CYLINDER) and 12.6M cells
(PPRIME_NOZZLE); the other perf suites top out around 10⁵ cells.  This
suite drives the *whole* front of the chain at paper scale — chunked
array-engine mesh generation, dual construction with automatic index
narrowing, and serial plus process-parallel recursive bisection against
the shared-memory CSR segment — reporting cells/sec and the process
memory high-water after every stage (``BENCH_scale.json``).

Unlike the microbenchmark suites there is no seed reference to race:
the seed code cannot reach this scale at all (the object mesh engine
alone would materialize tens of millions of Python tuples).  The
figures of merit are therefore absolute throughput, the
serial-vs-parallel partition ratio, and peak RSS; regressions are
caught by the loose memory gate plus the ``seconds`` entries diffed by
eye in review.

This suite is intentionally *not* part of the default ``all``
expansion (it runs for minutes); invoke it explicitly with
``python -m repro bench --suite scale`` or the CI ``scale_smoke`` job.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..graph.metrics import edge_cut
from ..graph.partition import partition_graph, recursive_bisection
from ..mesh.dual import mesh_to_dual_graph
from ..mesh.generators import cylinder_mesh, uniform_mesh
from .common import (
    compare_results,
    load_baseline,
    peak_rss_mib,
    save_baseline,
    suite_result,
)

__all__ = [
    "run_benchmarks",
    "run_suite",
    "format_report",
    "save_baseline",
    "load_baseline",
    "compare_results",
]

#: Benchmark sizes.  ``smoke``/``full`` are uniform quadtree meshes
#: (4**depth cells); ``paper`` is the adaptively refined cylinder mesh
#: at the depth whose cell count brackets the paper's 6.4M-cell
#: CYLINDER case — the out-of-core rung (streaming dual + spillable
#: hierarchy) exists to make this size fit.
SIZES = {
    "full": dict(depth=10, mesh="uniform"),  # 1,048,576 cells
    "smoke": dict(depth=9, mesh="uniform"),  # 262,144 cells
    "paper": dict(depth=14, mesh="cylinder"),  # ≈6.5M cells
}


def _stage(fn):
    """Run one chain stage, returning ``(result, seconds, rss_mib)``.

    The RSS figure is the process high-water *after* the stage — a
    monotone watermark, so per-stage values show which stage first
    pushed memory to each level.
    """
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0, peak_rss_mib()


def run_benchmarks(
    *,
    size: str = "full",
    repeats: int = 1,
    seed: int = 3,
    n_jobs: int = 2,
    nparts: int = 8,
) -> dict:
    """Run the scale chain at one size.

    Every stage runs exactly once — at this scale a stage is
    seconds-long and partially memory-bound, so best-of-N would double
    a multi-minute suite for little noise reduction (``repeats`` is
    accepted for interface compatibility and ignored).

    The parallel partition leg uses ``n_jobs`` workers (minimum 2) on
    the ``"process"`` executor, so workers attach the shared CSR
    segment rather than unpickling subgraphs; the attach events are
    counted and recorded.  Parallel labels are deterministic across
    worker counts and backends but intentionally differ from the
    serial stream (each tree node spawns its own generator), so the
    stages are compared on cut quality, not label equality.  On a
    machine with fewer than two CPUs the parallel leg is skipped with
    a reason (its timing would measure pool overhead, not speedup, and
    a ``parallel_speedup < 1`` row would gate later comparisons on
    pure noise — the same policy as the kway suite).

    Every case records ``cpus`` (the machine's CPU count) and the dual
    engine in effect; when ``REPRO_HIERARCHY_BUDGET`` is set, the
    serial partition stage also records the hierarchy spill counters.
    """
    del repeats
    if size not in SIZES:
        raise ValueError(f"unknown benchmark size {size!r}")
    spec = SIZES[size]
    depth = spec["depth"]
    mesh_kind = spec.get("mesh", "uniform")
    n_jobs = max(2, n_jobs)
    cpus = os.cpu_count() or 1

    if mesh_kind == "cylinder":
        mesh, mesh_s, mesh_rss = _stage(
            lambda: cylinder_mesh(max_depth=depth)
        )
    else:
        mesh, mesh_s, mesh_rss = _stage(lambda: uniform_mesh(depth=depth))
    cells = len(mesh.cell_volumes)

    g, dual_s, dual_rss = _stage(
        lambda: mesh_to_dual_graph(mesh, index_dtype="auto")
    )

    serial, serial_s, serial_rss = _stage(
        lambda: partition_graph(g, nparts, seed=seed, n_jobs=1)
    )
    serial_stage = {
        "seconds": serial_s,
        "cells_per_s": cells / serial_s,
        "peak_rss_mib": serial_rss,
        "cut": serial.cut,
        "imbalance": float(serial.imbalance.max()),
        "dtypes": serial.dtypes,
    }
    if serial.spill:
        serial_stage["spill"] = serial.spill

    if cpus < 2:
        parallel_stage = {
            "skipped": True,
            "reason": (
                f"os.cpu_count()={cpus} < 2: a parallel timing would "
                "measure pool overhead, not speedup"
            ),
        }
    else:
        attach_log: list = []
        par_labels, par_s, par_rss = _stage(
            lambda: recursive_bisection(
                g,
                nparts,
                np.random.default_rng(seed),
                n_jobs=n_jobs,
                executor="process",
                attach_log=attach_log,
            )
        )
        workers_attached = len({pid for pid, _ in attach_log})
        par_cut = edge_cut(g, par_labels)
        parallel_stage = {
            "seconds": par_s,
            "cells_per_s": cells / par_s,
            "peak_rss_mib": par_rss,
            "parallel_speedup": serial_s / par_s,
            "workers_attached": workers_attached,
            "cut": par_cut,
            "cut_vs_serial": par_cut / serial.cut if serial.cut else 1.0,
        }

    return {
        "size": size,
        "depth": depth,
        "mesh": mesh_kind,
        "cells": cells,
        "faces": int(len(mesh.face_area)),
        "nparts": nparts,
        "n_jobs": n_jobs,
        "cpus": cpus,
        "stages": {
            "mesh": {
                "seconds": mesh_s,
                "cells_per_s": cells / mesh_s,
                "peak_rss_mib": mesh_rss,
                "engine": "array",
            },
            "dual": {
                "seconds": dual_s,
                "cells_per_s": cells / dual_s,
                "peak_rss_mib": dual_rss,
                "index_dtype": str(g.adjncy.dtype),
                "engine": "streaming",
            },
            "partition_serial": serial_stage,
            "partition_parallel": parallel_stage,
        },
        "chain_seconds": mesh_s + dual_s + serial_s,
        "chain_cells_per_s": cells / (mesh_s + dual_s + serial_s),
    }


def run_suite(
    sizes: tuple[str, ...] = ("full",),
    *,
    repeats: int = 1,
    seed: int = 3,
    n_jobs: int = 2,
) -> dict:
    """Run the scale chain at the given sizes with the common envelope."""
    return suite_result(
        {
            s: run_benchmarks(size=s, repeats=repeats, seed=seed, n_jobs=n_jobs)
            for s in sizes
        }
    )


def format_report(result: dict) -> str:
    """Human-readable table for one scale-suite result."""
    lines = []
    for size, case in result.get("cases", {}).items():
        lines.append(
            f"[{size}] {case['cells']:,} cells, {case['faces']:,} faces, "
            f"{case['nparts']} parts"
            + (f", {case['cpus']} cpu(s)" if "cpus" in case else "")
        )
        for name, st in case["stages"].items():
            if st.get("skipped"):
                lines.append(
                    f"  {name:19s}: skipped ({st.get('reason', '?')})"
                )
                continue
            extra = ""
            if "index_dtype" in st:
                extra = f"  adjncy={st['index_dtype']}"
            if "spill" in st:
                sp = st["spill"]
                extra += (
                    f"  spills={sp['spills']}"
                    f" ({sp['spilled_bytes'] / 2**20:,.0f} MiB)"
                )
            if "parallel_speedup" in st:
                extra = (
                    f"  {st['parallel_speedup']:.2f}x vs serial, "
                    f"{st['workers_attached']} workers attached, "
                    f"cut ratio {st['cut_vs_serial']:.3f}"
                )
            lines.append(
                f"  {name:19s}: {st['seconds']:7.2f} s"
                f"  {st['cells_per_s']:12,.0f} cells/s"
                f"  rss {st['peak_rss_mib']:7.0f} MiB" + extra
            )
        lines.append(
            f"  chain (serial)     : {case['chain_seconds']:7.2f} s"
            f"  {case['chain_cells_per_s']:12,.0f} cells/s"
        )
    return "\n".join(lines)
