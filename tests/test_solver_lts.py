"""Tests for local time stepping and the task-distributed runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flusim import ClusterConfig, simulate
from repro.mesh import uniform_mesh
from repro.partitioning import make_decomposition
from repro.solver import (
    LTSState,
    TaskDistributedSolver,
    blast_wave,
    heun_step,
    integrate,
    lts_iteration,
    quiescent,
)
from repro.solver.timestep import stable_timesteps
from repro.temporal import (
    face_levels,
    levels_from_depth,
    levels_from_timestep,
    num_subiterations,
)
from tests.oracles.invariants import validate_schedule


def _index_sets(mesh, tau):
    fl = face_levels(mesh, tau)
    nlev = int(tau.max()) + 1
    faces = {t: np.flatnonzero(fl == t) for t in range(nlev)}
    cells = {t: np.flatnonzero(tau == t) for t in range(nlev)}
    return faces, cells


class TestTimestep:
    def test_scaling_with_cell_size(self, small_cube_mesh):
        U = quiescent(small_cube_mesh)
        dt = stable_timesteps(small_cube_mesh, U)
        # Uniform sound speed: dt ∝ cell size ∝ 2^-depth.
        d = small_cube_mesh.cell_depth
        fine = dt[d == d.max()].mean()
        coarse = dt[d == d.min()].mean()
        assert coarse / fine == pytest.approx(
            2.0 ** (d.max() - d.min()), rel=0.1
        )

    def test_assign_levels_matches_depth_for_uniform_state(
        self, small_cube_mesh
    ):
        U = quiescent(small_cube_mesh)
        dt_min = stable_timesteps(small_cube_mesh, U).min()
        tau = levels_from_timestep(stable_timesteps(small_cube_mesh, U))
        d = small_cube_mesh.cell_depth
        np.testing.assert_array_equal(tau, d.max() - d)
        assert dt_min > 0

    def test_cfl_safety(self, small_cube_mesh):
        """2^τ · dt_min never exceeds a cell's own stability bound."""
        U = blast_wave(small_cube_mesh)
        dt = stable_timesteps(small_cube_mesh, U)
        tau, dt_min = levels_from_timestep(dt), dt.min()
        assert np.all(np.exp2(tau) * dt_min <= dt + 1e-15)


class TestLTSConservation:
    def test_exact_invariant(self, small_cube_mesh, small_cube_tau):
        """Σ U·V + Σ acc is conserved to machine precision for mass
        and energy (quiescent boundaries carry no mass/energy flux)."""
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = blast_wave(mesh, radius=0.03)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        state = LTSState(U0)
        c0 = state.conserved_total(mesh)
        faces, cells = _index_sets(mesh, tau)
        for _ in range(2):
            lts_iteration(mesh, state, tau, faces, cells, dt_min)
        c1 = state.conserved_total(mesh)
        assert c1[0] == pytest.approx(c0[0], rel=1e-13)  # mass
        assert c1[3] == pytest.approx(c0[3], rel=1e-13)  # energy

    def test_quiescent_near_fixed_point(self, small_cube_mesh, small_cube_tau):
        """Quiescent fluid: density/energy exactly preserved; momentum
        perturbed only at level-interface cells by the one-time
        startup transient (a cell's first window applies an incomplete
        flux set), bounded by O(p·dt·A/V)."""
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = quiescent(mesh)
        dt_min = 1e-7
        state = LTSState(U0)
        faces, cells = _index_sets(mesh, tau)
        lts_iteration(mesh, state, tau, faces, cells, dt_min)
        # Perturbation bounded by the transient scale p·Δt_max·A/V
        # (≈ Δt_max / h for square cells).
        dt_max = dt_min * float(np.exp2(tau.max()))
        h_min = float(np.sqrt(mesh.cell_volumes.min()))
        bound = 10.0 * dt_max / h_min
        assert np.abs(state.U - U0).max() <= bound
        # Total mass and energy exactly conserved.
        c0 = (U0 * mesh.cell_volumes[:, None]).sum(axis=0)
        c1 = state.conserved_total(mesh)
        assert c1[0] == pytest.approx(c0[0], rel=1e-13)
        assert c1[3] == pytest.approx(c0[3], rel=1e-13)
        # The perturbation is local: most cells are untouched after
        # one iteration.
        moved = np.abs(state.U - U0).max(axis=1) > bound * 1e-6
        assert moved.mean() < 0.5

    def test_lts_approximates_global_integration(self):
        """One LTS iteration ≈ global Euler integration to the same
        physical time on a graded mesh (smooth problem)."""
        from repro.mesh import build_quadtree_mesh

        def sizing(x, y):
            h = 1.0 / 32
            return np.where(np.hypot(x - 0.5, y - 0.5) < 0.25, h, 2 * h)

        mesh = build_quadtree_mesh(sizing, max_depth=5, min_depth=4)
        tau = levels_from_depth(mesh)
        U0 = blast_wave(mesh, radius=0.1, p_ratio=1.5)
        dt_min = float(
            0.5 * (stable_timesteps(mesh, U0) / np.exp2(tau)).min()
        )
        nsub = num_subiterations(int(tau.max()))
        t_end = nsub * dt_min

        state = LTSState(U0)
        faces, cells = _index_sets(mesh, tau)
        lts_iteration(mesh, state, tau, faces, cells, dt_min)
        # Apply any outstanding accumulations for comparison purposes.
        U_lts = state.U + state.acc / mesh.cell_volumes[:, None]

        U_ref = U0.copy()
        for _ in range(nsub):
            from repro.solver import euler_step

            U_ref = euler_step(mesh, U_ref, dt_min)
        err = np.abs(U_lts - U_ref).max() / np.abs(U_ref).max()
        assert err < 0.02


class TestTaskDistributedSolver:
    def test_matches_phase_loop(
        self, small_cube_mesh, small_cube_tau, cube_decomp_mc
    ):
        """Task execution is numerically equivalent to the direct
        phase loop (same kernels, same order up to commutative sums)."""
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = blast_wave(mesh)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        solver = TaskDistributedSolver(mesh, tau, cube_decomp_mc, dt_min)
        st1 = LTSState(U0)
        solver.run_iteration(st1)

        st2 = LTSState(U0)
        faces, cells = _index_sets(mesh, tau)
        lts_iteration(mesh, st2, tau, faces, cells, dt_min)
        np.testing.assert_allclose(st1.U, st2.U, atol=1e-12)
        np.testing.assert_allclose(st1.acc, st2.acc, atol=1e-12)

    def test_partitioning_does_not_change_physics(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc, cube_decomp_mc
    ):
        """The numerical result must be independent of the domain
        decomposition."""
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = blast_wave(mesh)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        states = []
        for dec in (cube_decomp_sc, cube_decomp_mc):
            solver = TaskDistributedSolver(mesh, tau, dec, dt_min)
            st = LTSState(U0)
            solver.run_iteration(st)
            states.append(st.U)
        np.testing.assert_allclose(states[0], states[1], atol=1e-11)

    def test_durations_positive_and_complete(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc
    ):
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = quiescent(mesh)
        dt_min = 1e-4
        solver = TaskDistributedSolver(mesh, tau, cube_decomp_sc, dt_min)
        res = solver.run_iteration(LTSState(U0))
        assert len(res.durations) == solver.dag.num_tasks
        assert np.all(res.durations >= 0)
        assert res.elapsed >= res.durations.sum() * 0.5

    def test_measured_durations_replayable(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc
    ):
        mesh, tau = small_cube_mesh, small_cube_tau
        solver = TaskDistributedSolver(mesh, tau, cube_decomp_sc, 1e-4)
        res = solver.run_iteration(LTSState(quiescent(mesh)))
        trace = simulate(
            solver.dag, ClusterConfig(4, 2), durations=res.durations
        )
        validate_schedule(trace, solver.dag)
        assert trace.makespan <= res.durations.sum() + 1e-12

    def test_multiple_iterations(self, small_cube_mesh, small_cube_tau, cube_decomp_mc):
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = blast_wave(mesh)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        solver = TaskDistributedSolver(mesh, tau, cube_decomp_mc, dt_min)
        st = LTSState(U0)
        results = solver.run(st, 3)
        assert len(results) == 3
        # State stays physical.
        from repro.solver import pressure

        assert pressure(st.U).min() > 0
