"""Ablations — geometric baselines.

RCB / SFC geometric comparators (related work, §VIII): they balance
total cost like SC_OC and hence inherit its subiteration imbalance.
The recursive-bisection vs k-way frontier is a recorded number in
EXPERIMENTS.md ("RB vs k-way").
"""

from __future__ import annotations

from repro.experiments import ablations


def test_ablation_geometric_baselines(once):
    result = once(ablations.run_baseline_ablation)
    print(
        "\ngeometric baselines (CYLINDER, 64 domains, 16p × 32c): "
        + "  ".join(
            f"{s}={result.makespan[s]:.0f}" for s in result.strategies
        )
    )
    # MC_TL beats every single-criterion strategy, including the
    # geometric ones.
    for s in ("SC_OC", "RCB", "SFC"):
        assert (
            result.makespan["MC_TL"] < result.makespan[s]
        ), s
