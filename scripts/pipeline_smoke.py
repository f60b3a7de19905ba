#!/usr/bin/env python
"""CI smoke test for the pipeline artifact store.

Runs the same scenario twice against a throwaway disk store and
asserts the content-addressed cache actually does its job:

* the cold run computes every stage (no hits);
* what it left on disk costs the array bytes and no more (the ``.npz``
  members are stored, not deflated; the table is the disk price);
* the warm run is served from the store for *every* stage — with one
  stage's ``.npz`` rewritten the way earlier versions wrote it
  (``np.savez_compressed``), so the old format is read in every run;
* the warm run is faster than the cold run.

Exit code 0 on success, 1 with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/pipeline_smoke.py [--scenario NAME]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.pipeline import ArtifactStore, Pipeline, get_scenario

#: Container bytes allowed per array beyond its data: the ``.npy``
#: header plus the zip local and central records (~260 B measured).
MEMBER_OVERHEAD = 1024
#: The stage whose entry is rewritten deflated before the warm run.
LEGACY_STAGE = "taskgraph"


def disk_price(root: Path, store: ArtifactStore, cold) -> list[str]:
    """Print ``store.doctor()``'s per-stage on-disk bytes beside the
    array bytes; a problem for every stage that costs more than its
    arrays, its sidecar and the container's per-member records."""
    problems = []
    per_stage = store.doctor().per_stage
    print("on disk after the cold run (npz + sidecar, store.doctor()):")
    print(f"{'stage':>10s} {'arrays':>7s} {'array B':>10s} {'on disk B':>10s}")
    for name, rec in cold.provenance.items():
        base = root / name / rec.digest
        with np.load(base.with_suffix(".npz")) as data:
            members = len(data.files)
            array_bytes = sum(data[k].nbytes for k in data.files)
        _, on_disk = per_stage[name]
        print(f"{name:>10s} {members:7d} {array_bytes:10d} {on_disk:10d}")
        allowed = (
            array_bytes
            + MEMBER_OVERHEAD * members
            + base.with_suffix(".json").stat().st_size
        )
        if on_disk > allowed:
            problems.append(
                f"stage {name!r} costs {on_disk} B on disk for "
                f"{array_bytes} B of arrays (allowed {allowed})"
            )
    return problems


def rewrite_deflated(npz: Path) -> None:
    """Re-encode one entry in place as earlier versions wrote it."""
    with np.load(npz) as data:
        arrays = {k: data[k] for k in data.files}
    np.savez_compressed(npz, **arrays)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="characteristics")
    ap.add_argument(
        "--set",
        dest="options",
        action="append",
        default=["scale=6", "domains=8", "processes=4"],
        metavar="KEY=VALUE",
    )
    args = ap.parse_args(argv)

    options = {}
    for item in args.options:
        key, _, value = item.partition("=")
        try:
            options[key] = int(value)
        except ValueError:
            options[key] = value
    scenario = get_scenario(args.scenario, **options)

    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as root:
        store = ArtifactStore(root)
        pipe = Pipeline(store, n_jobs=1)

        t0 = time.perf_counter()
        cold = pipe.run(scenario)
        cold_s = time.perf_counter() - t0

        problems += disk_price(Path(root), store, cold)
        legacy = cold.provenance[LEGACY_STAGE].digest
        rewrite_deflated(Path(root) / LEGACY_STAGE / f"{legacy}.npz")

        # drop the in-process objects so the warm run must exercise
        # the disk layer end to end
        store.clear_memory()

        t0 = time.perf_counter()
        warm = pipe.run(scenario)
        warm_s = time.perf_counter() - t0

        print(f"scenario {args.scenario} ({options})")
        print(f"cold: {cold_s * 1e3:8.1f} ms, {cold.cache_hits}/5 hits")
        print(cold.explain())
        print(f"warm: {warm_s * 1e3:8.1f} ms, {warm.cache_hits}/5 hits")
        print(warm.explain())

        if cold.cache_hits != 0:
            problems.append(
                f"cold run hit the empty store ({cold.cache_hits} hits)"
            )
        for name, rec in warm.provenance.items():
            if not rec.hit:
                problems.append(f"warm run recomputed stage {name!r}")
        if warm.metrics.makespan != cold.metrics.makespan:
            problems.append(
                "cached makespan "
                f"{warm.metrics.makespan} != computed "
                f"{cold.metrics.makespan}"
            )
        if warm_s >= cold_s:
            problems.append(
                f"warm run ({warm_s:.3f}s) not faster than cold "
                f"({cold_s:.3f}s)"
            )

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    if not problems:
        print(f"OK: warm run {cold_s / warm_s:.1f}x faster, all stages cached")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
