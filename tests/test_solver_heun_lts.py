"""Tests for the second-order Heun local-time-stepping scheme."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh import build_quadtree_mesh, uniform_mesh
from repro.partitioning import make_decomposition
from repro.solver import (
    LTSState,
    TaskDistributedSolver,
    blast_wave,
    heun_step,
    lts_iteration,
    pressure,
)
from repro.solver.timestep import stable_timesteps
from repro.taskgraph import ObjectType, generate_task_graph
from repro.temporal import face_levels, levels_from_depth
from tests.oracles.invariants import conserved_total_heun, validate_dag


def _index_sets(mesh, tau):
    fl = face_levels(mesh, tau)
    nlev = int(tau.max()) + 1
    return (
        {t: np.flatnonzero(fl == t) for t in range(nlev)},
        {t: np.flatnonzero(tau == t) for t in range(nlev)},
    )


class TestHeunUniform:
    def test_exactly_matches_global_heun(self):
        """Single temporal level ⇒ the LTS Heun scheme degenerates to
        classical Heun, bit-for-bit (up to float addition order)."""
        mesh = uniform_mesh(depth=4)
        tau = levels_from_depth(mesh)
        U0 = blast_wave(mesh, radius=0.1, p_ratio=2.0)
        dt = 0.5 * float(stable_timesteps(mesh, U0).min())
        state = LTSState(U0)
        faces, cells = _index_sets(mesh, tau)
        lts_iteration(mesh, state, tau, faces, cells, dt, scheme="heun")
        np.testing.assert_allclose(
            state.U, heun_step(mesh, U0, dt), atol=1e-14
        )

    def test_second_order_convergence(self):
        """Halving dt reduces the error ~4× (Heun) vs ~2× (Euler)."""
        mesh = uniform_mesh(depth=4)
        tau = levels_from_depth(mesh)
        U0 = blast_wave(mesh, radius=0.15, p_ratio=1.2)
        faces, cells = _index_sets(mesh, tau)
        dt0 = 0.4 * float(stable_timesteps(mesh, U0).min())
        t_end = 4 * dt0

        def advance(dt, scheme):
            st = LTSState(U0)
            for _ in range(int(round(t_end / dt))):
                lts_iteration(mesh, st, tau, faces, cells, dt, scheme=scheme)
            return st.U

        # Reference: very fine Heun.
        ref = advance(dt0 / 8, "heun")
        orders = {}
        for scheme in ("euler", "heun"):
            e1 = np.abs(advance(dt0, scheme) - ref).max()
            e2 = np.abs(advance(dt0 / 2, scheme) - ref).max()
            orders[scheme] = np.log2(e1 / e2)
        assert orders["heun"] > 1.6
        assert orders["heun"] > orders["euler"] + 0.5


class TestHeunGraded:
    @pytest.fixture(scope="class")
    def case(self):
        def sizing(x, y):
            h = 1.0 / 32
            return np.where(np.hypot(x - 0.5, y - 0.5) < 0.25, h, 2 * h)

        mesh = build_quadtree_mesh(sizing, max_depth=5, min_depth=4)
        tau = levels_from_depth(mesh)
        U0 = blast_wave(mesh, radius=0.1, p_ratio=2.0)
        dt_min = 0.5 * float(
            (stable_timesteps(mesh, U0) / np.exp2(tau)).min()
        )
        return mesh, tau, U0, dt_min

    def test_conservation_invariant(self, case):
        """Interior conservation is exact by construction; the tiny
        residual is genuine *transmissive-boundary* flux driven by the
        Gaussian blast's infinite tails (~1e-11 pressure perturbation
        at the walls), not a scheme defect — hence the 1e-8 relative
        tolerance."""
        mesh, tau, U0, dt_min = case
        state = LTSState(U0)
        c0 = conserved_total_heun(state, mesh)
        faces, cells = _index_sets(mesh, tau)
        for _ in range(3):
            lts_iteration(
                mesh, state, tau, faces, cells, dt_min, scheme="heun"
            )
        c1 = conserved_total_heun(state, mesh)
        assert c1[0] == pytest.approx(c0[0], rel=1e-8)
        assert c1[3] == pytest.approx(c0[3], rel=1e-8)

    def test_conservation_exact_without_boundary_flux(self):
        """With a strictly quiescent far field (flat state), the Heun
        invariant holds to machine precision."""
        from repro.mesh import cube_mesh
        from repro.solver import quiescent

        mesh = cube_mesh(max_depth=8)
        tau = levels_from_depth(mesh, num_levels=4)
        state = LTSState(quiescent(mesh))
        c0 = conserved_total_heun(state, mesh)
        faces, cells = _index_sets(mesh, tau)
        lts_iteration(
            mesh, state, tau, faces, cells, 1e-6, scheme="heun"
        )
        c1 = conserved_total_heun(state, mesh)
        assert c1[0] == pytest.approx(c0[0], rel=1e-14)
        assert c1[3] == pytest.approx(c0[3], rel=1e-14)

    def test_stays_physical(self, case):
        mesh, tau, U0, dt_min = case
        state = LTSState(U0)
        faces, cells = _index_sets(mesh, tau)
        for _ in range(5):
            lts_iteration(
                mesh, state, tau, faces, cells, dt_min, scheme="heun"
            )
        assert pressure(state.U).min() > 0
        assert state.U[:, 0].min() > 0

    def test_more_accurate_than_euler_lts(self, case):
        """At equal dt, the Heun LTS tracks the fine-step reference
        better than the Euler LTS."""
        mesh, tau, U0, dt_min = case
        faces, cells = _index_sets(mesh, tau)

        def advance(scheme, n, dtm):
            st = LTSState(U0)
            for _ in range(n):
                lts_iteration(mesh, st, tau, faces, cells, dtm, scheme=scheme)
            return st.U + st.acc / mesh.cell_volumes[:, None] * 0  # raw U

        ref = advance("heun", 16, dt_min / 4)
        err_h = np.abs(advance("heun", 4, dt_min) - ref).max()
        err_e = np.abs(advance("euler", 4, dt_min) - ref).max()
        assert err_h < err_e


class TestHeunTaskGraph:
    @pytest.fixture(scope="class")
    def setup(self, ):
        from repro.mesh import cube_mesh

        mesh = cube_mesh(max_depth=8)
        tau = levels_from_depth(mesh, num_levels=4)
        U0 = blast_wave(mesh)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        decomp = make_decomposition(mesh, tau, 8, 4, strategy="MC_TL", seed=0)
        return mesh, tau, U0, dt_min, decomp

    def test_doubles_task_count(self, setup):
        mesh, tau, U0, dt_min, decomp = setup
        dag_e = generate_task_graph(mesh, tau, decomp, scheme="euler")
        dag_h = generate_task_graph(mesh, tau, decomp, scheme="heun")
        assert dag_h.num_tasks == 2 * dag_e.num_tasks
        assert dag_h.total_work() == pytest.approx(2 * dag_e.total_work())

    def test_heun_dag_valid(self, setup):
        mesh, tau, U0, dt_min, decomp = setup
        dag = generate_task_graph(mesh, tau, decomp, scheme="heun")
        validate_dag(dag)
        # Stages present on both task types.
        t = dag.tasks
        for typ in (ObjectType.FACE, ObjectType.CELL):
            sel = t.obj_type == int(typ)
            assert set(np.unique(t.stage[sel])) == {1, 2}

    def test_stage2_after_stage1_within_phase(self, setup):
        """For every (s, τ, domain, locality, type) pair, the stage-2
        task id follows the stage-1 id."""
        mesh, tau, U0, dt_min, decomp = setup
        dag = generate_task_graph(mesh, tau, decomp, scheme="heun")
        t = dag.tasks
        key = {}
        for i in range(dag.num_tasks):
            k = (
                int(t.subiteration[i]),
                int(t.phase_tau[i]),
                int(t.domain[i]),
                int(t.locality[i]),
                int(t.obj_type[i]),
            )
            key.setdefault(k, []).append((int(t.stage[i]), i))
        for entries in key.values():
            stages = [s for s, _ in entries]
            assert stages == sorted(stages)

    def test_taskgraph_matches_phase_loop(self, setup):
        mesh, tau, U0, dt_min, decomp = setup
        solver = TaskDistributedSolver(
            mesh, tau, decomp, dt_min, scheme="heun"
        )
        st1 = LTSState(U0)
        solver.run_iteration(st1)
        st2 = LTSState(U0)
        faces, cells = _index_sets(mesh, tau)
        lts_iteration(
            mesh, st2, tau, faces, cells, dt_min, scheme="heun"
        )
        np.testing.assert_allclose(st1.U, st2.U, atol=1e-12)
        np.testing.assert_allclose(st1.acc, st2.acc, atol=1e-12)
        np.testing.assert_allclose(st1.acc2, st2.acc2, atol=1e-12)

    def test_partitioning_independent(self, setup):
        mesh, tau, U0, dt_min, _ = setup
        states = []
        for strategy in ("SC_OC", "MC_TL"):
            decomp = make_decomposition(
                mesh, tau, 8, 4, strategy=strategy, seed=0
            )
            solver = TaskDistributedSolver(
                mesh, tau, decomp, dt_min, scheme="heun"
            )
            st = LTSState(U0)
            solver.run_iteration(st)
            states.append(st.U)
        np.testing.assert_allclose(states[0], states[1], atol=1e-11)

    def test_threaded_execution_matches(self, setup):
        """The Heun task graph's extra anti-dependencies make threaded
        execution safe too."""
        from repro.runtime import run_iteration_threaded

        mesh, tau, U0, dt_min, decomp = setup
        solver = TaskDistributedSolver(
            mesh, tau, decomp, dt_min, scheme="heun"
        )
        st_serial = LTSState(U0)
        solver.run_iteration(st_serial)
        st_thr = LTSState(U0)
        run_iteration_threaded(solver, st_thr, cores_per_process=2)
        np.testing.assert_allclose(st_thr.U, st_serial.U, atol=1e-11)
        np.testing.assert_allclose(st_thr.acc, st_serial.acc, atol=1e-11)
        np.testing.assert_allclose(st_thr.acc2, st_serial.acc2, atol=1e-11)

    def test_bad_scheme_rejected(self, setup):
        mesh, tau, U0, dt_min, decomp = setup
        with pytest.raises(ValueError):
            generate_task_graph(mesh, tau, decomp, scheme="rk4")
        with pytest.raises(ValueError):
            TaskDistributedSolver(mesh, tau, decomp, dt_min, scheme="rk4")
