"""Typed per-stage configuration for the reproduction pipeline.

The paper's workflow is one fixed chain — build mesh, assign temporal
levels, partition, generate the task graph, simulate the schedule.
Each link gets a frozen dataclass config; a :class:`Scenario` bundles
the five configs and is the unit the runner, the scenario registry,
the batch runner and the artifact store all speak.

Every field of every config participates in the stage's content
address (see :mod:`repro.pipeline.hashing`) except
``PartitionConfig.n_jobs``: every node of the bisection tree draws
from its own generator, so the labels are the same for any worker
count and the count is how the partition runs, not what it is.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = [
    "NUM_LEVELS",
    "MeshConfig",
    "LevelConfig",
    "PartitionConfig",
    "TaskGraphConfig",
    "ScheduleConfig",
    "Scenario",
]

#: Temporal level count per replica mesh (paper Table I).
NUM_LEVELS = {"cylinder": 4, "cube": 4, "pprime_nozzle": 3}


@dataclass(frozen=True)
class MeshConfig:
    """Mesh generation: a named builder plus its size.

    ``name`` keys into :data:`repro.mesh.MESH_FACTORIES` (the replica
    meshes).  ``scale`` overrides the builder's default ``max_depth``.
    """

    name: str
    scale: int | None = None


@dataclass(frozen=True)
class LevelConfig:
    """Temporal-level assignment (τ from quadtree depth, clipped to
    ``num_levels`` — ``None`` keeps the full depth range)."""

    num_levels: int | None = None


@dataclass(frozen=True)
class PartitionConfig:
    """Domain decomposition: strategy, sizes and partitioner knobs."""

    domains: int
    processes: int
    strategy: str = "SC_OC"
    seed: int = 0
    imbalance_tol: float = 1.05
    #: The bisection tree's worker count, pinned for the partition when
    #: the stage runs (``None``: the pinned count, ``REPRO_N_JOBS`` or
    #: one per CPU; see :func:`repro.util.forkpool.resolve_n_jobs`);
    #: left out of the content address.
    n_jobs: int | None = field(default=None, metadata={"digest": False})


@dataclass(frozen=True)
class TaskGraphConfig:
    """Task-graph expansion (paper Algorithm 1)."""

    scheme: str = "euler"
    iterations: int = 1
    cell_unit_cost: float = 1.0
    face_unit_cost: float = 1.0


@dataclass(frozen=True)
class ScheduleConfig:
    """FLUSIM simulation of the task graph on the virtual cluster
    (``cores=None`` emulates the unbounded-cores experiment)."""

    cores: int | None = 1
    scheduler: str = "eager"
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    """One full mesh→partition→DAG→schedule chain configuration."""

    mesh: MeshConfig
    levels: LevelConfig = field(default_factory=LevelConfig)
    partition: PartitionConfig = field(
        default_factory=lambda: PartitionConfig(domains=1, processes=1)
    )
    taskgraph: TaskGraphConfig = field(default_factory=TaskGraphConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)

    @classmethod
    def standard(
        cls,
        mesh: str,
        domains: int,
        processes: int,
        cores: int | None,
        strategy: str = "SC_OC",
        *,
        scale: int | None = None,
        seed: int = 0,
        scheme: str = "euler",
    ) -> "Scenario":
        """Scenario on a named replica mesh with the paper's level
        caps (Table I) applied automatically (eager scheduler, one
        iteration, imbalance tolerance 1.05; :meth:`with_options` or
        ``--set`` changes them)."""
        return cls(
            mesh=MeshConfig(name=mesh, scale=scale),
            levels=LevelConfig(num_levels=NUM_LEVELS.get(mesh)),
            partition=PartitionConfig(
                domains=domains,
                processes=processes,
                strategy=strategy,
                seed=seed,
            ),
            taskgraph=TaskGraphConfig(scheme=scheme),
            schedule=ScheduleConfig(cores=cores, seed=seed),
        )

    def replace(self, **stage_overrides: object) -> "Scenario":
        """A copy with whole stage configs replaced (e.g.
        ``sc.replace(partition=new_pc)``)."""
        return dataclasses.replace(self, **stage_overrides)

    def with_options(self, **options: object) -> "Scenario":
        """A copy with *leaf* options changed, routed to the stage
        that owns each field (e.g. ``domains=64, scheduler="sjf"``).

        ``seed`` updates both the partition and the schedule seeds,
        matching the single-seed convention of the experiment
        harnesses; ``mesh`` renames the mesh builder.
        """
        updates: dict[str, dict[str, object]] = {}
        for key, value in options.items():
            if key == "seed":
                updates.setdefault("partition", {})["seed"] = value
                updates.setdefault("schedule", {})["seed"] = value
                continue
            if key == "mesh":
                updates.setdefault("mesh", {})["name"] = value
                # Follow the replica meshes' level caps (Table I), as
                # Scenario.standard would.
                updates.setdefault("levels", {})["num_levels"] = (
                    NUM_LEVELS.get(str(value))
                )
                continue
            for stage_field in dataclasses.fields(self):
                cfg = getattr(self, stage_field.name)
                if key in {f.name for f in dataclasses.fields(cfg)}:
                    updates.setdefault(stage_field.name, {})[key] = value
                    break
            else:
                raise ValueError(
                    f"unknown scenario option {key!r}; no pipeline "
                    "stage config has such a field"
                )
        out = self
        for stage_name, kwargs in updates.items():
            out = dataclasses.replace(
                out,
                **{
                    stage_name: dataclasses.replace(
                        getattr(out, stage_name), **kwargs
                    )
                },
            )
        return out
