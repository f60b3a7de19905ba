"""Compile scenarios into an explicit stage-DAG (the *plan* half of
the plan/schedule split).

``compile_plan`` turns one scenario — or a batch of scenarios — into a
:class:`StagePlan`: typed :class:`StageTask` nodes keyed by the same
sha256 content addresses the artifact store uses
(:func:`~repro.pipeline.hashing.stage_digest` over stage name/version,
config and upstream digests), with edges taken from
:data:`~repro.pipeline.stages.STAGE_INPUTS`.

**Merge rule: node identity is the content address.**  Two scenarios
whose mesh configs are equal derive the same mesh digest, land on the
same node, and the shared prefix collapses at *plan time* — instead of
being rediscovered at run time through store lookups and claim locks.
Conversely, any config difference anywhere upstream changes the digest
and splits the chains from that stage on, so a merged plan can never
alias two genuinely different computations (short of a sha256
collision, which the store already trusts the address not to have).

Each node remembers the ``jobs`` (scenario indices) that need it;
downstream, the scheduler uses that both for provenance attribution
(first job computes, the rest ride as ``"shared"``) and for failure
isolation (a failed node fails exactly the jobs whose chains pass
through it, no others).

Priorities are static critical-path bottom levels over nominal stage
costs — the classic HEFT-style upward rank, cheap to compute at plan
time and enough to keep the partition-heavy spine of every chain ahead
of leaf work under a bounded worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .config import Scenario
from .hashing import stage_digest
from .stages import STAGE_INPUTS, STAGE_ORDER, STAGES

__all__ = ["StageTask", "StagePlan", "compile_plan", "NOMINAL_COST"]

#: Nominal per-stage cost weights for the bottom-level priority.  Only
#: the *ratios* matter (partition dominates a chain's wall time, mesh
#: generation is the widely shared root); they deliberately encode the
#: chain's typical shape, not measured times, so plans stay
#: deterministic across machines.
NOMINAL_COST: dict[str, float] = {
    "mesh": 3.0,
    "levels": 1.0,
    "partition": 8.0,
    "taskgraph": 4.0,
    "schedule": 2.0,
}


@dataclass(frozen=True)
class StageTask:
    """One node of a compiled plan.

    ``key`` is the stage's sha256 content address — node identity,
    store address and provenance digest are all the same string.
    ``deps`` are upstream node keys in the stage's ``compute``-argument
    order (mirroring :data:`STAGE_INPUTS`); ``jobs`` are the indices of
    every scenario in the plan whose chain runs through this node.
    """

    key: str
    stage: str
    config: Any
    deps: tuple[str, ...]
    jobs: tuple[int, ...]


@dataclass(frozen=True)
class StagePlan:
    """A batch of scenarios compiled into one merged stage-DAG."""

    scenarios: tuple[Scenario, ...]
    throughs: tuple[str, ...]
    nodes: dict[str, StageTask]
    #: Per job: stage name → node key, in chain order.
    job_stages: tuple[dict[str, str], ...]
    #: Node key → keys of the nodes that consume it.
    dependents: dict[str, tuple[str, ...]]
    #: Node key → critical-path bottom level (dispatch priority).
    priority: dict[str, float]

    def __len__(self) -> int:
        return len(self.nodes)


def _validate_through(through: str) -> str:
    if through not in STAGE_ORDER:
        raise ValueError(
            f"unknown stage {through!r}; choose from {STAGE_ORDER}"
        )
    return through


def compile_plan(
    scenarios: Iterable[Scenario],
    *,
    through: str | Sequence[str] = "schedule",
) -> StagePlan:
    """Compile scenarios into one merged :class:`StagePlan`.

    ``through`` bounds each chain (a single stage name for all
    scenarios, or one per scenario).  Digests are derived exactly as
    the linear runner derives them, so a plan node's key equals the
    digest the oracle path records for the same stage — the property
    the bit-identity tests pin.

    Scenarios are taken as given; the partitioner's worker count is
    not part of any address, so it never splits a node.
    """
    scenario_list = tuple(scenarios)
    if isinstance(through, str):
        throughs = (_validate_through(through),) * len(scenario_list)
    else:
        throughs = tuple(_validate_through(t) for t in through)
        if len(throughs) != len(scenario_list):
            raise ValueError(
                f"{len(scenario_list)} scenario(s) but {len(throughs)} "
                "'through' value(s)"
            )

    configs: dict[str, Any] = {}
    deps_of: dict[str, tuple[str, ...]] = {}
    stage_of: dict[str, str] = {}
    jobs_of: dict[str, list[int]] = {}
    job_stages: list[dict[str, str]] = []
    order: list[str] = []  # first-seen node order (topological)

    for j, (scenario, thr) in enumerate(zip(scenario_list, throughs)):
        stop = STAGE_ORDER.index(thr)
        digests: dict[str, str] = {}
        chain: dict[str, str] = {}
        for name in STAGE_ORDER[: stop + 1]:
            stage = STAGES[name]
            config = getattr(scenario, name)
            upstream = tuple(digests[u] for u in STAGE_INPUTS[name])
            key = stage_digest(stage.name, stage.version, config, upstream)
            digests[name] = key
            chain[name] = key
            if key not in configs:
                configs[key] = config
                deps_of[key] = upstream
                stage_of[key] = name
                jobs_of[key] = []
                order.append(key)
            jobs_of[key].append(j)
        job_stages.append(chain)

    nodes = {
        key: StageTask(
            key=key,
            stage=stage_of[key],
            config=configs[key],
            deps=deps_of[key],
            jobs=tuple(jobs_of[key]),
        )
        for key in order
    }

    dependents_mut: dict[str, list[str]] = {k: [] for k in nodes}
    for key, task in nodes.items():
        for dep in task.deps:
            dependents_mut[dep].append(key)
    dependents = {k: tuple(v) for k, v in dependents_mut.items()}

    # Bottom levels: walk first-seen order *reversed* — every node was
    # appended after its dependencies, so its dependents come later in
    # `order` and are already resolved when we reach it.
    priority: dict[str, float] = {}
    for key in reversed(order):
        task = nodes[key]
        below = max(
            (priority[d] for d in dependents[key]), default=0.0
        )
        priority[key] = NOMINAL_COST.get(task.stage, 1.0) + below

    return StagePlan(
        scenarios=scenario_list,
        throughs=throughs,
        nodes=nodes,
        job_stages=tuple(job_stages),
        dependents=dependents,
        priority=priority,
    )
