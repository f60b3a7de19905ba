"""Task-distributed solver execution — the mini-FLUSEPA.

Executes the *actual* finite-volume update through the task graph: each
FACE/CELL task of Algorithm 1 runs its LTS kernel on its own object
set, in a dependency-respecting order, and is individually wall-clock
timed.  The measured durations can then be replayed on a virtual
cluster (:func:`repro.flusim.simulate` with ``durations=``) — this is
how the repo reproduces the paper's production-code experiments
(Figs. 5 and 13) without real MPI hardware: FLUSIM itself ignores
communication, so replaying true kernel timings through the same DAG
is the faithful stand-in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..mesh.structures import Mesh
from ..partitioning.decomposition import DomainDecomposition
from ..taskgraph.dag import TaskDAG
from ..taskgraph.generation import classify_objects, generate_task_graph
from ..taskgraph.task import ObjectType
from ..temporal.levels import face_levels
from .lts import (
    LTSState,
    accumulate_face_fluxes,
    apply_cell_updates,
    corrector_update,
    predictor_update,
)

__all__ = ["IterationResult", "TaskDistributedSolver"]


@dataclass
class IterationResult:
    """Outcome of one task-distributed iteration.

    Attributes
    ----------
    durations:
        ``(T,)`` measured wall-clock seconds per task.
    elapsed:
        Total serial wall-clock of the iteration.
    """

    durations: np.ndarray
    elapsed: float


class TaskDistributedSolver:
    """Runs the LTS solver through a task graph, timing every task.

    Parameters
    ----------
    mesh, tau, decomp:
        Mesh, temporal levels and domain decomposition.
    dt_min:
        Subiteration time step (a level-τ cell advances ``2**τ ·
        dt_min`` per activation); must satisfy every τ=0 cell's CFL
        bound (see :func:`repro.solver.timestep.stable_timesteps`).
    scheme:
        ``"euler"`` (first-order) or ``"heun"`` (the paper's
        second-order predictor/corrector); must match the task graph
        if one is supplied.
    """

    def __init__(
        self,
        mesh: Mesh,
        tau: np.ndarray,
        decomp: DomainDecomposition,
        dt_min: float,
        *,
        scheme: str = "euler",
        dag: TaskDAG | None = None,
    ) -> None:
        if scheme not in ("euler", "heun"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.mesh = mesh
        self.tau = np.asarray(tau, dtype=np.int32)
        self.decomp = decomp
        self.dt_min = float(dt_min)
        self.scheme = scheme
        self.dag = dag if dag is not None else generate_task_graph(
            mesh, tau, decomp, scheme=scheme
        )

        # Precompute each task's object index array.
        info = classify_objects(mesh, self.tau, decomp)
        nlev = int(self.tau.max()) + 1
        ndom = decomp.num_domains

        def group_index(dom, lev, loc):
            return (dom.astype(np.int64) * nlev + lev) * 2 + loc

        cgid = group_index(
            info["cell_domain"], info["cell_level"], info["cell_locality"]
        )
        fgid = group_index(
            info["face_domain"], info["face_level"], info["face_locality"]
        )
        ngroups = ndom * nlev * 2
        self._cells_of_group = _bucketize(cgid, ngroups)
        self._faces_of_group = _bucketize(fgid, ngroups)

        t = self.dag.tasks
        tgid = (
            t.domain.astype(np.int64) * nlev + t.phase_tau
        ) * 2 + t.locality
        self._task_objects: list[np.ndarray] = []
        for i in range(t.num_tasks):
            g = int(tgid[i])
            if t.obj_type[i] == int(ObjectType.FACE):
                self._task_objects.append(self._faces_of_group[g])
            else:
                self._task_objects.append(self._cells_of_group[g])
        self._face_level = face_levels(mesh, self.tau)

    def run_task(self, i: int, state: LTSState) -> None:
        """Run task ``i``'s kernel on its object set — the one task body
        of the serial timed loop and the threaded runtime alike."""
        t = self.dag.tasks
        objs = self._task_objects[i]
        if t.obj_type[i] == int(ObjectType.FACE):
            dt_face = float(1 << int(t.phase_tau[i])) * self.dt_min
            accumulate_face_fluxes(
                self.mesh, state, objs, dt_face, stage=int(t.stage[i]),
            )
        elif self.scheme == "euler":
            apply_cell_updates(self.mesh, state, objs)
        elif t.stage[i] == 1:
            predictor_update(self.mesh, state, objs)
        else:
            corrector_update(self.mesh, state, objs)

    def run_iteration(self, state: LTSState) -> IterationResult:
        """Execute one full iteration (all subiterations), timing each
        task.

        Tasks run in generation order, which is a topological order of
        the DAG by construction; the numerical result is bit-identical
        to the task-free phase loop (:func:`repro.solver.lts.lts_iteration`).
        """
        durations = np.zeros(self.dag.num_tasks, dtype=np.float64)
        t_start = time.perf_counter()
        for i in range(len(durations)):
            t0 = time.perf_counter()
            self.run_task(i, state)
            durations[i] = time.perf_counter() - t0
        return IterationResult(
            durations=durations, elapsed=time.perf_counter() - t_start
        )

    def run(self, state: LTSState, iterations: int) -> list[IterationResult]:
        """Run several full iterations; returns one result per
        iteration."""
        return [self.run_iteration(state) for _ in range(iterations)]


def _bucketize(gid: np.ndarray, ngroups: int) -> list[np.ndarray]:
    """Split ``arange(len(gid))`` into per-group index arrays."""
    order = np.argsort(gid, kind="stable")
    sorted_gid = gid[order]
    bounds = np.searchsorted(sorted_gid, np.arange(ngroups + 1))
    return [
        order[bounds[g] : bounds[g + 1]].astype(np.int64)
        for g in range(ngroups)
    ]
