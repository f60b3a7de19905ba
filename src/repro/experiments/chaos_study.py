"""Extension study — campaigns under injected faults (chaos study).

The production solver survives transient task failures, stragglers and
silent data corruption through its runtime machinery; this study
demonstrates the reproduction's :mod:`repro.resilience` layer doing
the same, *measurably*.  For each strategy (SC_OC, MC_TL) it runs
three threaded campaigns on the same initial state:

* **bare** — resilience disabled (no guard, no retry, no watchdog):
  the overhead reference;
* **resilient** — guards + retry + watchdog armed, but no faults
  injected: what the safety net costs when nothing goes wrong;
* **chaos** — the same net under a seeded
  :class:`~repro.resilience.faults.FaultPlan` injecting transient
  failures, stragglers and NaN poisoning: the recovery cost (retries,
  rollbacks, wasted seconds) and the proof of correctness — the final
  conserved totals must match the fault-free run's to float tolerance
  (injected transients fire *before* the task body and poisons are
  rolled back, so recovery is exact, not approximate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..resilience import FaultPlan, FaultSpec, GuardConfig
from ..runtime import RetryPolicy
from ..solver import blast_wave
from ..solver.driver import SimulationDriver
from .common import standard_case

__all__ = ["ChaosStudyResult", "run", "report", "CLAIMS"]

#: Recovery is exact: the chaos campaign's conserved totals match the
#: fault-free run's.
CLAIMS = (
    "totals_delta_sc_oc < 1e-9",
    "totals_delta_mc_tl < 1e-9",
)

STRATEGIES = ("SC_OC", "MC_TL")


@dataclass
class ChaosStudyResult:
    """Recovery statistics of the chaos campaigns."""

    strategies: list[str]
    iterations: int
    injected: dict[str, dict[str, int]]  # per strategy: kind -> count
    retries: dict[str, int]
    rollbacks: dict[str, int]
    wasted_seconds: dict[str, float]
    totals_delta: dict[str, float]  # |chaos - fault-free| rel, mass/energy
    elapsed_bare: dict[str, float]
    elapsed_resilient: dict[str, float]
    elapsed_chaos: dict[str, float]

    def overhead(self, strategy: str) -> float:
        """Resilience-on/faults-off cost over the bare run."""
        bare = self.elapsed_bare[strategy]
        return self.elapsed_resilient[strategy] / max(bare, 1e-300)


def _campaign_elapsed(records) -> float:
    return float(sum(r.elapsed for r in records))


def run(
    *,
    mesh_name: str = "cube",
    scale: int | None = 7,
    iterations: int = 5,
    domains: int = 8,
    processes: int = 4,
    cores: int = 2,
    seed: int = 0,
    transient_rate: float = 0.05,
    straggler_rate: float = 0.03,
    poison_rate: float = 0.01,
) -> ChaosStudyResult:
    """Run the chaos campaigns for both strategies."""
    mesh, _ = standard_case(mesh_name, scale=scale)
    U0 = blast_wave(mesh)

    injected: dict[str, dict[str, int]] = {}
    retries: dict[str, int] = {}
    rollbacks: dict[str, int] = {}
    wasted: dict[str, float] = {}
    delta: dict[str, float] = {}
    el_bare: dict[str, float] = {}
    el_res: dict[str, float] = {}
    el_chaos: dict[str, float] = {}

    for strategy in STRATEGIES:
        common = dict(
            num_domains=domains,
            num_processes=processes,
            strategy=strategy,
            seed=seed,
            executor="threaded",
            cores_per_process=cores,
        )
        # max_drift must sit above the *physical* per-iteration
        # boundary outflow (the domain is open, ~1e-6 relative at the
        # small scales); NaN poisoning is caught by the finite checks,
        # not the drift bound, which only nets gross corruption here.
        armed = dict(
            guard=GuardConfig(max_drift=1e-4, max_consecutive_rollbacks=5),
            retry=RetryPolicy(max_retries=3, backoff=0.001),
            watchdog=30.0,
        )

        # Bare: resilience disabled — the overhead reference.
        bare = SimulationDriver(mesh, U0, **common)
        res_bare = bare.run(iterations)
        el_bare[strategy] = _campaign_elapsed(res_bare.records)

        # Resilient, fault-free: what the safety net costs.
        resilient = SimulationDriver(mesh, U0, **common, **armed)
        res_res = resilient.run(iterations)
        el_res[strategy] = _campaign_elapsed(res_res.records)

        # Chaos: the same net under injected faults.
        plan = FaultPlan(
            specs=(
                FaultSpec("transient", transient_rate),
                FaultSpec("straggler", straggler_rate, delay=0.002),
                FaultSpec("poison", poison_rate),
            ),
            seed=seed + 1,
        )
        chaos = SimulationDriver(mesh, U0, **common, **armed, fault_plan=plan)
        res_chaos = chaos.run(iterations)
        el_chaos[strategy] = _campaign_elapsed(res_chaos.records)

        injected[strategy] = dict(plan.injected)
        retries[strategy] = res_chaos.health.retries
        rollbacks[strategy] = res_chaos.health.rollbacks
        wasted[strategy] = res_chaos.health.wasted_seconds

        ref = res_bare.state.conserved_total(mesh)
        got = res_chaos.state.conserved_total(mesh)
        delta[strategy] = float(
            max(
                abs(got[c] - ref[c]) / max(abs(ref[c]), 1.0)
                for c in (0, 3)
            )
        )

    return ChaosStudyResult(
        strategies=list(STRATEGIES),
        iterations=iterations,
        injected=injected,
        retries=retries,
        rollbacks=rollbacks,
        wasted_seconds=wasted,
        totals_delta=delta,
        elapsed_bare=el_bare,
        elapsed_resilient=el_res,
        elapsed_chaos=el_chaos,
    )


def report(result: ChaosStudyResult) -> str:
    """Human-readable chaos report."""
    lines = [
        "Chaos study — threaded campaigns under injected faults",
        f"  ({result.iterations} iterations per campaign; bare vs "
        "resilient vs chaos)",
        "",
        f"{'strategy':>8}  {'injected (t/s/p)':>18}  {'retries':>7}  "
        f"{'rollbacks':>9}  {'wasted[s]':>9}  {'overhead':>8}  "
        f"{'Δtotals':>9}",
    ]
    for s in result.strategies:
        inj = result.injected[s]
        inj_str = (
            f"{inj.get('transient', 0)}/{inj.get('straggler', 0)}"
            f"/{inj.get('poison', 0)}"
        )
        lines.append(
            f"{s:>8}  {inj_str:>18}  {result.retries[s]:>7}  "
            f"{result.rollbacks[s]:>9}  {result.wasted_seconds[s]:>9.3f}  "
            f"{result.overhead(s):>7.2f}x  {result.totals_delta[s]:>9.1e}"
        )
    lines += [
        "",
        "  overhead = resilient-but-fault-free elapsed / bare elapsed",
        "  Δtotals  = rel. mass/energy difference, chaos vs fault-free",
    ]
    return "\n".join(lines)
