"""End-to-end property tests: random configurations through the whole
stack must preserve the library's core invariants.

These complement the per-module tests by fuzzing the *composition*:
random graded meshes, random level assignments, random decompositions
and cluster shapes — asserting the invariants the paper's argument
rests on (total work independent of strategy, valid schedules, exact
solver conservation, makespan bounds).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flusim import ClusterConfig, simulate
from repro.mesh import build_quadtree_mesh
from repro.partitioning import make_decomposition
from repro.taskgraph import generate_task_graph
from repro.temporal import assign_levels_by_fraction, levels_from_depth
from tests.oracles.invariants import (
    conserved_total_heun,
    validate_dag,
    validate_schedule,
)


@st.composite
def mesh_configs(draw):
    """Random two-band graded mesh + partitioning configuration."""
    depth = draw(st.integers(min_value=4, max_value=6))
    cx = draw(st.floats(0.25, 0.75))
    cy = draw(st.floats(0.25, 0.75))
    radius = draw(st.floats(0.1, 0.3))
    domains = draw(st.integers(min_value=2, max_value=8))
    processes = draw(st.integers(min_value=1, max_value=4))
    processes = min(processes, domains)
    cores = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=5))
    return depth, cx, cy, radius, domains, processes, cores, seed


def _build_mesh(depth, cx, cy, radius):
    h = 1.0 / (1 << depth)

    def sizing(x, y):
        d = np.hypot(x - cx, y - cy)
        return np.where(d < radius, h, 4 * h)

    return build_quadtree_mesh(sizing, max_depth=depth, min_depth=2)


class TestPipelineInvariants:
    @given(mesh_configs())
    @settings(max_examples=12, deadline=None)
    def test_work_invariance_and_schedule_validity(self, cfg):
        depth, cx, cy, radius, domains, processes, cores, seed = cfg
        mesh = _build_mesh(depth, cx, cy, radius)
        tau = levels_from_depth(mesh, num_levels=3)
        cluster = ClusterConfig(processes, cores)
        works = []
        for strategy in ("SC_OC", "MC_TL"):
            decomp = make_decomposition(
                mesh, tau, domains, processes, strategy=strategy, seed=seed
            )
            dag = generate_task_graph(mesh, tau, decomp)
            validate_dag(dag)
            works.append(dag.total_work())
            trace = simulate(dag, cluster, seed=seed)
            validate_schedule(trace, dag)
            cp, _ = dag.critical_path()
            assert trace.makespan >= cp - 1e-9
            assert trace.makespan <= dag.total_work() + 1e-9
        # The paper's invariant: total work is strategy-independent.
        assert works[0] == pytest.approx(works[1])

    @given(
        st.integers(min_value=0, max_value=10),
        st.floats(0.05, 0.6),
    )
    @settings(max_examples=10, deadline=None)
    def test_fraction_assignment_pipeline(self, seed, f0):
        """Distribution-exact level assignment also flows through."""
        mesh = _build_mesh(5, 0.5, 0.5, 0.2)
        fractions = np.array([f0, (1 - f0) / 2, (1 - f0) / 2])
        tau = assign_levels_by_fraction(mesh, fractions, seed=seed)
        decomp = make_decomposition(
            mesh, tau, 4, 2, strategy="MC_TL", seed=seed
        )
        dag = generate_task_graph(mesh, tau, decomp)
        validate_dag(dag)
        trace = simulate(dag, ClusterConfig(2, 2), seed=seed)
        validate_schedule(trace, dag)

    @given(mesh_configs())
    @settings(max_examples=8, deadline=None)
    def test_solver_conservation_any_decomposition(self, cfg):
        """Mass/energy invariant holds for arbitrary decompositions
        and both schemes."""
        from repro.solver import LTSState, TaskDistributedSolver, quiescent
        depth, cx, cy, radius, domains, processes, cores, seed = cfg
        mesh = _build_mesh(depth, cx, cy, radius)
        tau = levels_from_depth(mesh, num_levels=3)
        decomp = make_decomposition(
            mesh, tau, domains, processes, strategy="SC_OC", seed=seed
        )
        U0 = quiescent(mesh)
        for scheme in ("euler", "heun"):
            solver = TaskDistributedSolver(
                mesh, tau, decomp, 1e-6, scheme=scheme
            )
            state = LTSState(U0)
            if scheme == "euler":
                c0 = state.conserved_total(mesh)
            else:
                c0 = conserved_total_heun(state, mesh)
            solver.run_iteration(state)
            c1 = (
                state.conserved_total(mesh)
                if scheme == "euler"
                else conserved_total_heun(state, mesh)
            )
            # Tolerance note: when a level interface touches the
            # domain boundary, the startup transient gives boundary
            # cells O(dt) momentum, whose stage-2 *boundary* flux
            # carries real mass through the transmissive wall — a
            # physical O(dt²) effect, not a conservation bug.
            assert c1[0] == pytest.approx(c0[0], rel=1e-8)
            assert c1[3] == pytest.approx(c0[3], rel=1e-8)

    @given(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["eager", "lifo", "cp", "random"]),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_scheduler_work_conservation(self, seed, scheduler, iters):
        """Every scheduler executes exactly the DAG's work, for any
        iteration count."""
        mesh = _build_mesh(5, 0.4, 0.6, 0.25)
        tau = levels_from_depth(mesh, num_levels=3)
        decomp = make_decomposition(
            mesh, tau, 4, 2, strategy="MC_TL", seed=seed
        )
        dag = generate_task_graph(mesh, tau, decomp, iterations=iters)
        trace = simulate(
            dag, ClusterConfig(2, 3), scheduler=scheduler, seed=seed
        )
        busy = (trace.end - trace.start).sum()
        assert busy == pytest.approx(dag.total_work())
