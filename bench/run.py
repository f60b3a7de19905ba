"""The repository's benchmark: one command, four workloads, every
metric by name.

Driver form (one workload, one JSON object as the last line)::

    python3 bench/run.py --workload paper_chains --seed 3 --seconds 20 --trace 0

Reader's form (all workloads, untraced then traced, one table)::

    python3 bench/run.py [--seed N] [--workloads a,b] [--quick] [--runs N]
                         [--out FILE] [--trace-out PREFIX]

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (0 where the workload bypasses
the layer).  See ``bench/README.md`` for the glossary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from typing import Any

import harness
from harness import Checks, Context, Metric, Tracer


def machine_info() -> dict[str, Any]:
    from repro import accel

    compiled = "none"
    if accel.is_available():
        import numba

        compiled = f"numba {numba.__version__}"
    return {"cpus": os.cpu_count() or 1, "compiled": compiled}


def run_workload(
    name: str, *, seed: int, seconds: float, quick: bool, traced: bool
) -> tuple[dict[str, Metric], Checks, Tracer]:
    """One workload, traced or not: its metrics, checks and spans."""
    module = importlib.import_module(name)
    harness.quiet_quality_warnings()
    tracer = Tracer(traced)
    ctx = Context(seed=seed, seconds=seconds, quick=quick, tracer=tracer)
    cpu0 = harness.cpu_seconds()
    if traced:
        metrics = module.run_traced(ctx)
        machine = machine_info()
        metrics["machine.cpus"] = Metric(float(machine["cpus"]))
        metrics["machine.compiled"] = Metric(
            float(machine["compiled"] != "none")
        )
        metrics["cpu_s"] = Metric(harness.cpu_seconds() - cpu0)
    else:
        metrics = module.run(ctx)
    return metrics, ctx.checks, tracer


def contract_line(
    declared: list[dict[str, Any]], metrics: dict[str, Metric], checks: Checks
) -> str:
    """The driver's result object.  Every declared metric is present;
    a per-layer metric the workload never touched reads 0."""
    unknown = sorted(set(metrics) - {d["name"] for d in declared})
    if unknown:
        raise SystemExit(f"bench: metrics not in BENCHMARK.json: {unknown}")
    return json.dumps(
        {
            "correct": checks.failed == 0,
            "attempted": max(1, checks.attempted),
            "failed": checks.failed,
            "metrics": {
                d["name"]: {
                    "value": metrics.get(d["name"], Metric(0.0)).value,
                    "unit": d["unit"],
                }
                for d in declared
            },
        }
    )


def print_table(
    title: str, declared: list[dict[str, Any]], metrics: dict[str, Metric]
) -> None:
    print(f"\n== {title}")
    for d in declared:
        m = metrics.get(d["name"])
        if m is None:
            continue
        bound = f"  bound {d['bound']:.0%}" if "bound" in d else ""
        print(
            f"  {d['name']:32s} {m.value:16.6g} {d['unit']:10s} "
            f"n={m.n}{bound}"
        )


def driver_form(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """One workload in this process; the result object is the last
    line of stdout."""
    traced = bool(args.trace)
    metrics, checks, tracer = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        quick=args.quick,
        traced=traced,
    )
    for msg in checks.messages:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    if args.report:
        report = {
            "metrics": {
                k: {"value": m.value, "n": m.n} for k, m in metrics.items()
            },
            "checks": checks.to_dict(),
            "spans": tracer.to_dicts(),
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    print(contract_line(declared, metrics, checks))
    return 1 if checks.failed else 0


def reader_form(
    args: argparse.Namespace, spec: dict[str, Any], chosen: list[str]
) -> int:
    """Every chosen workload, each run in a process of its own — the
    driver form — so memory high-waters and child accounting never
    leak from one workload into the next."""
    runs = []
    spans = Tracer()
    failed = 0
    with harness.temp_dir("reports") as tmp:
        for i in range(args.runs):
            seed = args.seed + i
            run: dict[str, Any] = {"seed": seed, "workloads": {}}
            for name in chosen:
                entry: dict[str, Any] = {}
                # Per-layer numbers come from one traced pass;
                # repeating it would add cost, not samples.
                for traced in (False, True) if i == 0 else (False,):
                    kind = "per_layer" if traced else "end_to_end"
                    report_path = tmp / "report.json"
                    cmd = [
                        sys.executable,
                        __file__,
                        "--workload",
                        name,
                        "--seed",
                        str(seed),
                        "--seconds",
                        str(args.seconds),
                        "--trace",
                        str(int(traced)),
                        "--report",
                        str(report_path),
                    ] + (["--quick"] if args.quick else [])
                    t0 = time.perf_counter()
                    proc = subprocess.run(
                        cmd, stdout=subprocess.DEVNULL, timeout=900
                    )
                    if proc.returncode not in (0, 1):
                        print(f"bench: {name} exited {proc.returncode}")
                        return proc.returncode
                    report = json.loads(report_path.read_text("utf-8"))
                    metrics = {
                        k: Metric(**v) for k, v in report["metrics"].items()
                    }
                    print_table(
                        f"{name} · seed {seed} · {kind.replace('_', ' ')} "
                        f"({time.perf_counter() - t0:.1f} s)",
                        spec[kind],
                        metrics,
                    )
                    checks = report["checks"]
                    fraction = checks["failed"] / max(1, checks["attempted"])
                    print(
                        f"  {'failed_fraction':32s} {fraction:16.6g} "
                        f"({checks['failed']} of {checks['attempted']} "
                        "checks)"
                    )
                    for msg in checks["messages"]:
                        print(f"  FAILED {msg}")
                    failed += checks["failed"]
                    entry[kind] = report["metrics"]
                    entry[f"{kind}_checks"] = checks
                    if traced:
                        own = Tracer()
                        own.extend(report["spans"])
                        shares = ", ".join(
                            f"{layer} {t:.3f}"
                            for layer, t in sorted(own.self_times().items())
                        )
                        print(f"  self time by layer, s: {shares}")
                        spans.extend(report["spans"])
                run["workloads"][name] = entry
            runs.append(run)
    if args.out:
        out = {
            "seconds": args.seconds,
            "quick": args.quick,
            "machine": machine_info(),
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    if args.trace_out:
        for path in spans.write(args.trace_out):
            print(f"bench: wrote {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="driver form: run one")
    ap.add_argument("--workloads", help="comma-separated subset (reader's form)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one small pass each")
    ap.add_argument(
        "--runs",
        type=int,
        default=1,
        help="reader's form: repeat the end-to-end runs with seeds "
        "SEED..SEED+N-1",
    )
    ap.add_argument("--out", help="write all numbers as JSON (for compare.py)")
    ap.add_argument("--trace-out", help="write PREFIX.jsonl + PREFIX.chrome.json")
    ap.add_argument("--report", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (harness.SRC_DIR / "repro").is_dir():
        print(f"bench: no program to measure at {harness.SRC_DIR}", file=sys.stderr)
        return 2
    harness.scrub_environment()
    if args.workload:
        return driver_form(args, spec)
    chosen = args.workloads.split(",") if args.workloads else names
    for name in chosen:
        if name not in names:
            ap.error(f"unknown workload {name!r}; choose from {names}")
    return reader_form(args, spec, chosen)


if __name__ == "__main__":
    raise SystemExit(main())
