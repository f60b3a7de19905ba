"""The five typed stages of the reproduction chain.

Each stage knows three things:

* ``compute(config, *upstream)`` — produce the domain object by
  calling the underlying subsystem (mesh generators, temporal levels,
  partitioning strategies, task-graph expansion, FLUSIM);
* ``pack(obj)`` — flatten the object into ``(arrays, meta)`` for the
  content-addressed store (raw array bytes + JSON-able meta);
* ``unpack(arrays, meta, *upstream)`` — rebuild the object from a
  stored artifact.

``version`` is part of the stage's content address; bump it whenever
``compute`` semantics change so stale artifacts are never reused.
A stage whose inputs state the size of its work also has
``size(*upstream)``; the scheduler submits a pooled round's misses
largest first by it (only ``schedule`` has one: its task graph's tasks
plus edges, the events and releases its simulation makes).

Round-trips are bit-for-bit: ``pack``/``unpack`` preserve array dtypes
and values exactly (verified by the store tests), so a cached MC_TL
partition replayed from disk is indistinguishable from a freshly
computed one.
"""

from __future__ import annotations

import numpy as np

from ..flusim import ClusterConfig, schedule_metrics, simulate
from ..flusim.metrics import ScheduleMetrics
from ..flusim.trace import Trace
from ..mesh import MESH_FACTORIES
from ..mesh.structures import Mesh
from ..partitioning import DomainDecomposition, make_decomposition
from ..taskgraph.dag import TaskDAG
from ..taskgraph.generation import generate_task_graph
from ..taskgraph.task import TaskArrays
from ..temporal import levels_from_depth
from ..util.chain import STAGE_ORDER
from ..util.forkpool import pinned_n_jobs
from .config import (
    LevelConfig,
    MeshConfig,
    PartitionConfig,
    ScheduleConfig,
    TaskGraphConfig,
)

__all__ = [
    "MeshStage",
    "LevelStage",
    "PartitionStage",
    "TaskGraphStage",
    "ScheduleStage",
    "STAGES",
    "STAGE_ORDER",
    "STAGE_INPUTS",
]

_MESH_FIELDS = (
    "cell_centers",
    "cell_volumes",
    "cell_depth",
    "face_cells",
    "face_area",
    "face_normal",
    "face_center",
)

_TASK_FIELDS = (
    "subiteration",
    "phase_tau",
    "obj_type",
    "locality",
    "domain",
    "process",
    "num_objects",
    "cost",
    "stage",
)


class MeshStage:
    """``MeshConfig`` → :class:`~repro.mesh.structures.Mesh`."""

    name = "mesh"
    version = 1

    @staticmethod
    def compute(config: MeshConfig) -> Mesh:
        try:
            factory = MESH_FACTORIES[config.name]
        except KeyError:
            raise ValueError(
                f"unknown mesh {config.name!r}; choose from "
                f"{sorted(MESH_FACTORIES)}"
            ) from None
        if config.scale is None:
            return factory()
        return factory(max_depth=config.scale)

    @staticmethod
    def pack(mesh: Mesh) -> tuple[dict[str, np.ndarray], dict]:
        return {f: getattr(mesh, f) for f in _MESH_FIELDS}, {}

    @staticmethod
    def unpack(arrays: dict[str, np.ndarray], meta: dict) -> Mesh:
        return Mesh(**{f: arrays[f] for f in _MESH_FIELDS})


class LevelStage:
    """``LevelConfig`` + mesh → per-cell temporal levels τ."""

    name = "levels"
    version = 1

    @staticmethod
    def compute(config: LevelConfig, mesh: Mesh) -> np.ndarray:
        return levels_from_depth(mesh, num_levels=config.num_levels)

    @staticmethod
    def pack(tau: np.ndarray) -> tuple[dict[str, np.ndarray], dict]:
        return {"tau": tau}, {}

    @staticmethod
    def unpack(
        arrays: dict[str, np.ndarray], meta: dict, mesh: Mesh
    ) -> np.ndarray:
        return arrays["tau"]


class PartitionStage:
    """``PartitionConfig`` + (mesh, τ) →
    :class:`~repro.partitioning.DomainDecomposition`."""

    name = "partition"
    # v2: every bisection-tree node owns a generator spawned from its
    # parent's, so the serial labels moved once and equal the pooled.
    # v3: the root's children and grandchildren on large graphs
    # inherit their parent's coarsening hierarchy instead of
    # re-matching their subgraph.
    version = 3

    @staticmethod
    def compute(
        config: PartitionConfig, mesh: Mesh, tau: np.ndarray
    ) -> DomainDecomposition:
        # A worker count named in the config is pinned for the
        # partition and kept OUT of the content address: the labels
        # are the same for every count.
        with pinned_n_jobs(config.n_jobs):
            return make_decomposition(
                mesh,
                tau,
                config.domains,
                config.processes,
                strategy=config.strategy,
                seed=config.seed,
                imbalance_tol=config.imbalance_tol,
            )

    @staticmethod
    def pack(
        decomp: DomainDecomposition,
    ) -> tuple[dict[str, np.ndarray], dict]:
        arrays = {
            "domain": decomp.domain,
            "domain_process": decomp.domain_process,
        }
        meta = {
            "num_domains": int(decomp.num_domains),
            "num_processes": int(decomp.num_processes),
            "strategy": decomp.strategy,
        }
        return arrays, meta

    @staticmethod
    def unpack(
        arrays: dict[str, np.ndarray],
        meta: dict,
        mesh: Mesh,
        tau: np.ndarray,
    ) -> DomainDecomposition:
        return DomainDecomposition(
            domain=arrays["domain"],
            num_domains=int(meta["num_domains"]),
            domain_process=arrays["domain_process"],
            num_processes=int(meta["num_processes"]),
            strategy=str(meta["strategy"]),
        )


class TaskGraphStage:
    """``TaskGraphConfig`` + (mesh, τ, decomposition) →
    :class:`~repro.taskgraph.dag.TaskDAG` (paper Algorithm 1)."""

    name = "taskgraph"
    # v2: vectorized generator — canonical (lexsorted) edge order
    # replaces the seed loop's per-task set order in packed artifacts.
    version = 2

    @staticmethod
    def compute(
        config: TaskGraphConfig,
        mesh: Mesh,
        tau: np.ndarray,
        decomp: DomainDecomposition,
    ) -> TaskDAG:
        return generate_task_graph(
            mesh,
            tau,
            decomp,
            cell_unit_cost=config.cell_unit_cost,
            face_unit_cost=config.face_unit_cost,
            scheme=config.scheme,
            iterations=config.iterations,
        )

    @staticmethod
    def pack(dag: TaskDAG) -> tuple[dict[str, np.ndarray], dict]:
        arrays = {f: getattr(dag.tasks, f) for f in _TASK_FIELDS}
        arrays["edges"] = dag.edges
        return arrays, {}

    @staticmethod
    def unpack(
        arrays: dict[str, np.ndarray],
        meta: dict,
        mesh: Mesh,
        tau: np.ndarray,
        decomp: DomainDecomposition,
    ) -> TaskDAG:
        tasks = TaskArrays(**{f: arrays[f] for f in _TASK_FIELDS})
        return TaskDAG(tasks=tasks, edges=arrays["edges"])


class ScheduleStage:
    """``ScheduleConfig`` + task graph → simulated
    (:class:`~repro.flusim.trace.Trace`, metrics) pair."""

    name = "schedule"
    # v2: consumes the v2 (reordered-edge) task graphs; traces are
    # engine-identical but cached entries must not mix generations.
    version = 2

    @staticmethod
    def compute(
        config: ScheduleConfig, decomp: DomainDecomposition, dag: TaskDAG
    ) -> tuple[Trace, ScheduleMetrics]:
        cluster = ClusterConfig(decomp.num_processes, config.cores)
        trace = simulate(
            dag, cluster, scheduler=config.scheduler, seed=config.seed
        )
        return trace, schedule_metrics(dag, trace)

    @staticmethod
    def size(decomp: DomainDecomposition, dag: TaskDAG) -> int:
        return dag.num_tasks + dag.num_edges

    @staticmethod
    def pack(
        result: tuple[Trace, ScheduleMetrics],
    ) -> tuple[dict[str, np.ndarray], dict]:
        trace, metrics = result
        arrays = {
            "process": trace.process,
            "worker": trace.worker,
            "start": trace.start,
            "end": trace.end,
        }
        meta = {
            "num_processes": int(trace.num_processes),
            "cores_per_process": int(trace.cores_per_process),
            "metrics": {
                "makespan": metrics.makespan,
                "total_work": metrics.total_work,
                "efficiency": metrics.efficiency,
                "critical_path": metrics.critical_path,
                "mean_process_idle_fraction": (
                    metrics.mean_process_idle_fraction
                ),
            },
        }
        return arrays, meta

    @staticmethod
    def unpack(
        arrays: dict[str, np.ndarray],
        meta: dict,
        decomp: DomainDecomposition,
        dag: TaskDAG,
    ) -> tuple[Trace, ScheduleMetrics]:
        trace = Trace(
            process=arrays["process"],
            worker=arrays["worker"],
            start=arrays["start"],
            end=arrays["end"],
            num_processes=int(meta["num_processes"]),
            cores_per_process=int(meta["cores_per_process"]),
        )
        metrics = ScheduleMetrics(**{
            k: float(v) for k, v in meta["metrics"].items()
        })
        return trace, metrics


#: Stage name → class, in chain order (:data:`STAGE_ORDER`).
STAGES = {
    s.name: s
    for s in (
        MeshStage,
        LevelStage,
        PartitionStage,
        TaskGraphStage,
        ScheduleStage,
    )
}

#: Stage name → upstream stage names, in ``compute``-argument order.
#: This is the single declaration of the chain's dependency structure:
#: the plan compiler (:mod:`repro.pipeline.plan`) derives its edges
#: from it, and each entry matches the positional ``*upstream``
#: signature of the stage's ``compute``/``unpack``.  Note the schedule
#: stage does **not** read the mesh or the τ field directly — which is
#: exactly what lets a merged plan run two scenarios' schedule nodes
#: as soon as their partition/taskgraph nodes land.
STAGE_INPUTS: dict[str, tuple[str, ...]] = {
    "mesh": (),
    "levels": ("mesh",),
    "partition": ("mesh", "levels"),
    "taskgraph": ("mesh", "levels", "partition"),
    "schedule": ("partition", "taskgraph"),
}
