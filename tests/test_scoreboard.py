"""The committed ``REPRODUCTION.json``: EXPERIMENTS.md renders it, its
cheap deterministic rows regenerate exactly, and every row's claims
evaluate at reduced scale (``repro reproduce`` reruns the rest)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.scoreboard import (
    OUTPUT,
    claim_holds,
    render_markdown,
    score_row,
)

ROOT = Path(__file__).resolve().parents[1]
BEGIN, END = "<!-- scoreboard:begin -->", "<!-- scoreboard:end -->"

#: Rows cheap enough to regenerate at the default scale in tier-1.
CHEAP_ROWS = ("table1", "fig06", "fig08")

#: Reduced-scale harness arguments where mesh depth 6 alone is too small
#: or too slow; every other row runs at depth 6 (or its own default).
REDUCED = {
    "fig09": dict(scale=6, domains=16, processes=4, cores=8),
    "fig11": dict(scale=7, domain_counts=(16, 128, 256)),
    "scaling": dict(scale=7, process_counts=(2, 32)),
    "octree3d": dict(max_depth=3),
    "distribution": dict(
        scale=7, fine_fractions=(0.05, 0.2), domains=8, processes=4, cores=8
    ),
    "chaos": dict(scale=6, iterations=1),
}


@pytest.fixture(scope="module")
def committed():
    return json.loads((ROOT / OUTPUT).read_text(encoding="utf-8"))


def test_experiments_md_tables_are_the_committed_scoreboard(committed):
    assert list(committed["rows"]) == list(EXPERIMENTS)
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = text[text.index(BEGIN) + len(BEGIN) : text.index(END)]
    assert block.strip() == render_markdown(committed)


@pytest.mark.parametrize("name", CHEAP_ROWS)
def test_cheap_deterministic_rows_regenerate_exactly(name, committed):
    assert not EXPERIMENTS[name].measured
    assert score_row(name) == committed["rows"][name]


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_every_claim_evaluates_on_a_reduced_result(name):
    exp = EXPERIMENTS[name]
    if name in REDUCED:
        result = exp.harness.run(**{**dict(exp.run_kwargs), **REDUCED[name]})
    else:
        result = exp.run(6, seed=0)
    verdicts = exp.check(result)
    assert verdicts, f"{name} states no claim"
    assert all(isinstance(ok, bool) for _, ok in verdicts)


def test_verdict_rule():
    assert claim_holds([True, True, True, False], True)
    assert not claim_holds([True, True, False, False], True)
    assert not claim_holds([True] * 4, False)


def test_reproduce_refreshes_named_rows_only(tmp_path, monkeypatch, committed):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    stale = dict(committed, rows=dict(committed["rows"], fig08={}))
    (tmp_path / OUTPUT).write_text(json.dumps(stale), encoding="utf-8")
    assert main(["reproduce", "fig08"]) == 0
    assert json.loads((tmp_path / OUTPUT).read_text()) == committed
