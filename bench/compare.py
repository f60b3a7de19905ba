"""Compare two sets of benchmark runs, one row per (workload,
end-to-end metric).

    python3 bench/run.py --runs 10 --out A.json     # parent
    python3 bench/run.py --runs 10 --out B.json     # change
    python3 bench/compare.py A.json B.json

Verdicts, by the rules of the choosing-metrics guide:

* ``worse``  — B's median is worse than A's by more than the metric's
  bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, the wider of the two sides) exceeds the bound, so "no
  regression" cannot be told from noise — unless every run of B reads
  better than every run of A;
* ``better`` — B's median is better by more than that spread;
* ``same``   — otherwise.

Exits 1 if any row is ``worse``.  Two sets from one commit (A/A) must
show no ``worse`` and no ``unresolved`` row: that is the benchmark's
own steadiness test.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from harness import load_spec


def samples(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) → the value from every run in the file."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text("utf-8"))["runs"]:
        for workload, entry in run["workloads"].items():
            for metric, m in entry["end_to_end"].items():
                out.setdefault((workload, metric), []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(values: list[float]) -> str:
    return "/".join(f"{q:.5g}" for q in quartiles(values))


def verdict(
    a: list[float], b: list[float], *, higher_is_better: bool, bound: float
) -> tuple[str, float, float]:
    """(verdict, relative change of the median — positive is worse,
    spread)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = -1.0 if higher_is_better else 1.0
    change = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (qa, qb))
    if higher_is_better:
        separated = min(b) > max(a)
    else:
        separated = max(b) < min(a)
    if separated:
        return "better", change, spread
    if spread > bound:
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if change < -spread:
        return "better", change, spread
    return "same", change, spread


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = load_spec()
    a, b = samples(argv[0]), samples(argv[1])
    print(
        f"{'workload':17s} {'metric':16s} {'A q1/median/q3':>38s} "
        f"{'B q1/median/q3':>38s} {'change':>8s} {'spread':>7s} "
        f"{'bound':>6s}  verdict"
    )
    worse = 0
    for w in spec["workloads"]:
        for d in spec["end_to_end"]:
            key = (w["name"], d["name"])
            if key not in a or key not in b:
                continue
            v, change, spread = verdict(
                a[key],
                b[key],
                higher_is_better=d["better"] == "higher",
                bound=d["bound"],
            )
            worse += v == "worse"
            print(
                f"{key[0]:17s} {key[1]:16s} {fmt(a[key]):>38s} "
                f"{fmt(b[key]):>38s} {change:+8.1%} {spread:7.1%} "
                f"{d['bound']:6.0%}  {v}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
