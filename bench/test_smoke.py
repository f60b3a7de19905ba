"""Smoke test of the benchmark itself.

Run as ``python -m pytest bench -q``; it lives outside the tier-1
``testpaths`` because it takes about a minute.  It drives the driver
form in ``--quick`` mode and asserts that the output carries exactly
the workload and metric names ``BENCHMARK.json`` declares and that
every correctness check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def result_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--quick",
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_declaration(workload: str, trace: int, kind: str) -> None:
    result = result_line(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {d["name"]: d["unit"] for d in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
