"""The reproduction scoreboard: every registry row over fixed seeds.

``repro reproduce [NAME ...]`` runs each named row (default: all) of
:data:`~.registry.EXPERIMENTS` at its default scale once per seed in
:data:`SEEDS` and writes :data:`OUTPUT`: per metric the per-seed
values, median and quartiles; per claim the per-seed verdicts, the
verdict at the medians and one verdict by :func:`claim_holds`, the one
rule for all rows.  Naming rows refreshes only those rows of the file.
:func:`render_markdown` gives EXPERIMENTS.md's figure tables.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .registry import EXPERIMENTS, experiment, holds

__all__ = ["SEEDS", "OUTPUT", "claim_holds", "score_row", "reproduce"]
__all__ += ["render_markdown"]

#: Every row runs once per seed.
SEEDS = (0, 1, 2, 3)

#: Where ``repro reproduce`` writes the scoreboard (current directory).
OUTPUT = "REPRODUCTION.json"

RULE = "a claim holds at the metric medians and in at least 3 of the 4 seeds"


def claim_holds(per_seed: list[bool], at_median: bool) -> bool:
    """The verdict rule (:data:`RULE`): true at the medians and in at
    least three quarters of the seeds."""
    return at_median and 4 * sum(per_seed) >= 3 * len(per_seed)


def score_row(name: str) -> dict:
    """Run row ``name`` once per seed and score its claims."""
    exp = experiment(name)
    runs = [exp.metrics(exp.run(seed=seed)) for seed in SEEDS]
    metrics = {}
    for metric in runs[0]:
        values = [run[metric] for run in runs]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        metrics[metric] = {
            "seeds": values,
            "median": float(median),
            "quartiles": [float(q1), float(q3)],
        }
    medians = {metric: m["median"] for metric, m in metrics.items()}
    claims = {}
    for claim in getattr(exp.harness, exp.claims):
        per_seed = [holds(claim, run) for run in runs]
        at_median = holds(claim, medians)
        claims[claim] = {
            "seeds": per_seed,
            "median": at_median,
            "holds": claim_holds(per_seed, at_median),
        }
    return dict(
        title=exp.title, measured=exp.measured, metrics=metrics, claims=claims
    )


def reproduce(names: list[str]) -> str:
    """Score ``names`` (every row when empty), write the scoreboard to
    :data:`OUTPUT` and return its markdown rendering."""
    for name in names:
        experiment(name)  # unknown names fail before any row runs
    path = Path(OUTPUT)
    rows = {}
    if names and path.exists():
        rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
    for name in names or EXPERIMENTS:
        rows[name] = score_row(name)
    doc = {
        "seeds": list(SEEDS),
        "rule": RULE,
        "rows": {name: rows[name] for name in EXPERIMENTS if name in rows},
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return render_markdown(doc)


def _fmt(value: float) -> str:
    if value.is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3g}"


def render_markdown(doc: dict) -> str:
    """The scoreboard as markdown: per row, its metric table and its
    claim table."""
    seeds, rows = doc["seeds"], doc["rows"]
    verdicts = [
        c["holds"] for row in rows.values() for c in row["claims"].values()
    ]
    out = [
        f"Seeds {', '.join(map(str, seeds))}, default scale; {doc['rule']}. "
        f"**{sum(verdicts)} of {len(verdicts)} claims hold.**"
    ]
    header = "| metric | median | quartiles | " + " | ".join(
        f"seed {s}" for s in seeds
    )
    for name, row in rows.items():
        out += ["", f"### `{name}` — {row['title']}", ""]
        if row["measured"]:
            out += ["Measured: wall-clock timings, so a rerun moves them.", ""]
        out += [header + " |", "|---" * (3 + len(seeds)) + "|"]
        out += [
            f"| {metric} | {_fmt(m['median'])} | "
            f"{' – '.join(map(_fmt, m['quartiles']))} | "
            + " | ".join(map(_fmt, m["seeds"]))
            + " |"
            for metric, m in row["metrics"].items()
        ]
        out += ["", "| claim | seeds | at median | verdict |"]
        out.append("|---" * 4 + "|")
        out += [
            f"| `{claim}` | {sum(c['seeds'])}/{len(c['seeds'])} | "
            f"{'yes' if c['median'] else 'no'} | "
            f"{'holds' if c['holds'] else '**fails**'} |"
            for claim, c in row["claims"].items()
        ]
    return "\n".join(out)
