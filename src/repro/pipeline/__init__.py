"""The typed mesh→levels→partition→taskgraph→schedule pipeline.

One explicit, cached, resumable definition of the paper's workflow
chain, shared by the experiment harnesses, the CLI, the perf bench
and the campaign driver:

* typed per-stage configs and :class:`Scenario` bundles
  (:mod:`repro.pipeline.config`);
* deterministic content addressing (:mod:`repro.pipeline.hashing`);
* a content-addressed artifact store (a raw ``.bin`` payload per
  entry, each array in the narrowest dtype that widens back to it bit
  for bit, described and CRC-checked by its JSON sidecar) with a
  bounded in-memory LRU (:mod:`repro.pipeline.store`);
* the five stage definitions (:mod:`repro.pipeline.stages`);
* the stage-DAG plan compiler (:mod:`repro.pipeline.plan`) and the
  critical-path scheduler that executes compiled plans
  (:mod:`repro.pipeline.scheduler`);
* the runner, :class:`RunRecord` provenance and the sweep/batch
  machinery (:mod:`repro.pipeline.runner`);
* the scenario registry (:mod:`repro.pipeline.registry`).
"""

from ..util.forkpool import resolve_n_jobs
from .config import (
    NUM_LEVELS,
    LevelConfig,
    MeshConfig,
    PartitionConfig,
    Scenario,
    ScheduleConfig,
    TaskGraphConfig,
)
from .hashing import canonical_json, stage_digest
from .plan import StagePlan, StageTask, compile_plan
from .registry import SCENARIOS, get_scenario
from .runner import (
    Pipeline,
    RunRecord,
    StageRecord,
    expand_sweep,
    run_batch,
)
from .scheduler import (
    DagScheduler,
    NodeResult,
    PlanResult,
    execute_stage,
)
from .stages import (
    STAGE_INPUTS,
    STAGE_ORDER,
    STAGES,
    LevelStage,
    MeshStage,
    PartitionStage,
    ScheduleStage,
    TaskGraphStage,
)
from .locking import FileLock, Lease, acquire_claim
from .store import (
    ArtifactStore,
    DoctorReport,
    StoreStats,
    default_cache_root,
    default_store,
    set_default_store,
)

__all__ = [
    "NUM_LEVELS",
    "MeshConfig",
    "LevelConfig",
    "PartitionConfig",
    "TaskGraphConfig",
    "ScheduleConfig",
    "Scenario",
    "canonical_json",
    "stage_digest",
    "resolve_n_jobs",
    "SCENARIOS",
    "get_scenario",
    "Pipeline",
    "RunRecord",
    "StageRecord",
    "expand_sweep",
    "run_batch",
    "StagePlan",
    "StageTask",
    "compile_plan",
    "DagScheduler",
    "NodeResult",
    "PlanResult",
    "execute_stage",
    "STAGES",
    "STAGE_ORDER",
    "STAGE_INPUTS",
    "MeshStage",
    "LevelStage",
    "PartitionStage",
    "TaskGraphStage",
    "ScheduleStage",
    "ArtifactStore",
    "DoctorReport",
    "StoreStats",
    "FileLock",
    "Lease",
    "acquire_claim",
    "default_store",
    "set_default_store",
    "default_cache_root",
]
