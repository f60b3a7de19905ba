#!/usr/bin/env python
"""CI smoke test for the pipeline artifact store.

Runs the same scenario three times against a throwaway disk store and
asserts the content-addressed cache actually does its job:

* the cold run computes every stage (no hits);
* what it left on disk costs the stored bytes and no more (each
  entry's payload is exactly the narrowed bytes its manifest lists,
  never more than its arrays' bytes; the table is the disk price);
* the warm run is served from the store for every stage but one,
  whose entry was rewritten the way earlier versions wrote it (an
  ``.npz`` beside a version-1 sidecar): that stage is recomputed
  once, and a third run is served from the store for every stage;
* the warm run is faster than the cold run.

Exit code 0 on success, 1 with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/pipeline_smoke.py [--scenario NAME]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.pipeline import ArtifactStore, Pipeline, get_scenario

#: The stage whose entry is rewritten in the earlier format before the
#: warm run.
LEGACY_STAGE = "taskgraph"


def disk_price(root: Path, store: ArtifactStore, cold) -> list[str]:
    """Print ``store.doctor()``'s per-stage on-disk bytes beside the
    array bytes and the stored (narrowed) bytes; a problem for every
    stage whose payload is not exactly the stored bytes its manifest
    lists, whose stored bytes exceed its array bytes, or whose on-disk
    total is not payload plus sidecar."""
    problems = []
    per_stage = store.doctor().per_stage
    print("on disk after the cold run (payload + sidecar, store.doctor()):")
    print(
        f"{'stage':>10s} {'arrays':>7s} {'array B':>10s} {'stored B':>10s} "
        f"{'on disk B':>10s}"
    )
    for name, rec in cold.provenance.items():
        arrays = store.disk_read(name, rec.digest).arrays
        array_bytes = sum(a.nbytes for a in arrays.values())
        manifest = store.sidecar(name, rec.digest)["arrays"]
        stored = sum(
            np.dtype(dtype).itemsize * int(np.prod(shape))
            for _, dtype, shape, *_ in manifest
        )
        base = root / name / rec.digest
        payload = base.with_suffix(".bin").stat().st_size
        sidecar = base.with_suffix(".json").stat().st_size
        _, on_disk = per_stage[name]
        print(
            f"{name:>10s} {len(arrays):7d} {array_bytes:10d} {stored:10d} "
            f"{on_disk:10d}"
        )
        if (
            payload != stored
            or stored > array_bytes
            or on_disk != payload + sidecar
        ):
            problems.append(
                f"stage {name!r} costs {on_disk} B on disk ({payload} B "
                f"payload, {stored} B stored) for {array_bytes} B of "
                f"arrays and a {sidecar} B sidecar"
            )
    return problems


def write_legacy_entry(store: ArtifactStore, stage: str, digest: str) -> None:
    """Rewrite one entry as earlier versions wrote it: an ``.npz``
    container beside a version-1 sidecar listing the array names."""
    base = Path(store.root) / stage / digest
    arrays = store.disk_read(stage, digest).arrays
    np.savez(base.with_suffix(".npz"), **arrays)
    base.with_suffix(".bin").unlink()
    sidecar = base.with_suffix(".json")
    record = json.loads(sidecar.read_text(encoding="utf-8"))
    del record["nbytes"], record["crc32"]
    record.update(sidecar_version=1, arrays=sorted(arrays))
    sidecar.write_text(json.dumps(record), encoding="utf-8")


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
        write_legacy_entry(store, LEGACY_STAGE, legacy)

        # drop the in-process objects so the warm runs must exercise
        # the disk layer end to end
        store.clear_memory()

        t0 = time.perf_counter()
        warm = pipe.run(scenario)
        warm_s = time.perf_counter() - t0
        store.clear_memory()
        third = pipe.run(scenario)

        print(f"scenario {args.scenario} ({options})")
        print(f"cold: {cold_s * 1e3:8.1f} ms, {cold.cache_hits}/5 hits")
        print(cold.explain())
        print(f"warm: {warm_s * 1e3:8.1f} ms, {warm.cache_hits}/5 hits")
        print(warm.explain())
        print(f"third: {third.cache_hits}/5 hits")

        if cold.cache_hits != 0:
            problems.append(
                f"cold run hit the empty store ({cold.cache_hits} hits)"
            )
        for name, rec in warm.provenance.items():
            if rec.hit == (name == LEGACY_STAGE):
                problems.append(
                    f"warm run {'served' if rec.hit else 'recomputed'} "
                    f"stage {name!r} (only {LEGACY_STAGE!r}, written in "
                    "the earlier format, is recomputed)"
                )
        for name, rec in third.provenance.items():
            if rec.cache != "disk":
                problems.append(f"third run did not read stage {name!r} from disk")
        if (Path(root) / LEGACY_STAGE / f"{legacy}.npz").exists():
            problems.append("the recompute left the earlier format's .npz")
        for run in (warm, third):
            if run.metrics.makespan != cold.metrics.makespan:
                problems.append(
                    "cached makespan "
                    f"{run.metrics.makespan} != computed "
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
        print(
            f"OK: warm run {cold_s / warm_s:.1f}x faster, every stage "
            f"cached but the one recomputed from the earlier format"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
