"""Tests for solution-adaptive refinement and conservative transfer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh import uniform_mesh
from repro.mesh.adaptation import (
    adapt_mesh,
    density_gradient_indicator,
    transfer_solution,
)
from repro.solver import primitive_to_conservative, quiescent
from tests.oracles.invariants import validate_mesh


def bump_state(mesh, center=(0.5, 0.5), width=0.05, amp=0.5):
    n = mesh.num_cells
    x = mesh.cell_centers[:, 0]
    y = mesh.cell_centers[:, 1]
    rho = 1.0 + amp * np.exp(
        -((x - center[0]) ** 2 + (y - center[1]) ** 2) / width**2
    )
    return primitive_to_conservative(
        rho, np.zeros(n), np.zeros(n), np.full(n, 1.0)
    )


class TestIndicator:
    def test_zero_on_uniform_state(self):
        mesh = uniform_mesh(depth=4)
        ind = density_gradient_indicator(mesh, quiescent(mesh))
        np.testing.assert_allclose(ind, 0.0, atol=1e-15)

    def test_peaks_at_front(self):
        mesh = uniform_mesh(depth=5)
        U = bump_state(mesh, width=0.08)
        ind = density_gradient_indicator(mesh, U)
        r = np.hypot(
            mesh.cell_centers[:, 0] - 0.5, mesh.cell_centers[:, 1] - 0.5
        )
        # The steepest gradient of a Gaussian sits near r = width/√2;
        # far field is flat.
        near = ind[(r > 0.03) & (r < 0.12)].max()
        far = ind[r > 0.35].max()
        assert near > 10 * max(far, 1e-12)


class TestAdaptMesh:
    def test_refines_marked_region(self):
        mesh = uniform_mesh(depth=4)
        U = bump_state(mesh, width=0.08)
        ind = density_gradient_indicator(mesh, U)
        new = adapt_mesh(
            mesh,
            ind,
            refine_threshold=0.01,
            coarsen_threshold=0.0,
            max_depth=6,
            min_depth=3,
        )
        validate_mesh(new)
        # Finest new cells concentrate near the bump.
        fine = new.cell_centers[new.cell_depth > 4]
        assert len(fine) > 0
        r = np.hypot(fine[:, 0] - 0.5, fine[:, 1] - 0.5)
        assert r.max() < 0.3

    def test_coarsens_flat_region(self):
        mesh = uniform_mesh(depth=5)
        U = bump_state(mesh, width=0.05)
        ind = density_gradient_indicator(mesh, U)
        new = adapt_mesh(
            mesh,
            ind,
            refine_threshold=1e9,  # never refine
            coarsen_threshold=1e-4,
            max_depth=5,
            min_depth=3,
        )
        validate_mesh(new)
        assert new.num_cells < mesh.num_cells

    def test_noop_between_thresholds(self):
        mesh = uniform_mesh(depth=4)
        ind = np.full(mesh.num_cells, 0.5)
        new = adapt_mesh(
            mesh,
            ind,
            refine_threshold=1.0,
            coarsen_threshold=0.0,
            max_depth=6,
            min_depth=2,
        )
        assert new.num_cells == mesh.num_cells

    def test_threshold_validation(self):
        mesh = uniform_mesh(depth=3)
        with pytest.raises(ValueError):
            adapt_mesh(
                mesh,
                np.zeros(mesh.num_cells),
                refine_threshold=0.1,
                coarsen_threshold=0.2,
                max_depth=5,
            )


class TestTransfer:
    def test_identity_transfer(self):
        mesh = uniform_mesh(depth=4)
        U = bump_state(mesh)
        U2 = transfer_solution(mesh, mesh, U)
        np.testing.assert_allclose(U2, U)

    def test_prolongation_constant(self):
        """Refining injects the parent value into all children."""
        coarse = uniform_mesh(depth=3)
        fine = uniform_mesh(depth=4)
        U = bump_state(coarse)
        U2 = transfer_solution(coarse, fine, U)
        # Each fine cell matches its parent's value.
        par = (fine.cell_centers * (1 << 3)).astype(int)
        keys = {(3, i, j): n for n, (i, j) in enumerate(
            (coarse.cell_centers * (1 << 3)).astype(int)
        )}
        for n in range(fine.num_cells):
            pi, pj = par[n]
            np.testing.assert_allclose(U2[n], U[keys[(3, pi, pj)]])

    def test_restriction_volume_weighted(self):
        fine = uniform_mesh(depth=4)
        coarse = uniform_mesh(depth=3)
        U = bump_state(fine)
        U2 = transfer_solution(fine, coarse, U)
        c_f = (U * fine.cell_volumes[:, None]).sum(axis=0)
        c_c = (U2 * coarse.cell_volumes[:, None]).sum(axis=0)
        np.testing.assert_allclose(c_f, c_c, rtol=1e-13)

    def test_conservation_on_mixed_adaptation(self):
        mesh = uniform_mesh(depth=4)
        U = bump_state(mesh, width=0.07)
        ind = density_gradient_indicator(mesh, U)
        new = adapt_mesh(
            mesh,
            ind,
            refine_threshold=0.01,
            coarsen_threshold=0.001,
            max_depth=6,
            min_depth=2,
        )
        U2 = transfer_solution(mesh, new, U)
        c0 = (U * mesh.cell_volumes[:, None]).sum(axis=0)
        c1 = (U2 * new.cell_volumes[:, None]).sum(axis=0)
        np.testing.assert_allclose(c0, c1, rtol=1e-13)

    def test_round_trip_preserves_totals(self):
        """refine → coarsen back: totals exact, values smoothed."""
        mesh = uniform_mesh(depth=3)
        fine = uniform_mesh(depth=5)
        U = bump_state(mesh)
        U_fine = transfer_solution(mesh, fine, U)
        U_back = transfer_solution(fine, mesh, U_fine)
        np.testing.assert_allclose(U_back, U, rtol=1e-13)


class TestAdaptationPipeline:
    def test_adapted_mesh_flows_through_stack(self):
        """An adapted mesh works with levels, partitioning, task
        generation and the solver — the full production loop."""
        from repro.partitioning import make_decomposition
        from repro.solver import LTSState, TaskDistributedSolver
        from repro.solver.timestep import stable_timesteps
        from repro.temporal import levels_from_depth

        mesh = uniform_mesh(depth=4)
        U = bump_state(mesh, width=0.08)
        ind = density_gradient_indicator(mesh, U)
        new = adapt_mesh(
            mesh,
            ind,
            refine_threshold=0.01,
            coarsen_threshold=0.0,
            max_depth=6,
            min_depth=3,
        )
        U2 = transfer_solution(mesh, new, U)
        tau = levels_from_depth(new, num_levels=3)
        dt_min = float((stable_timesteps(new, U2) / np.exp2(tau)).min())
        decomp = make_decomposition(new, tau, 4, 2, strategy="MC_TL", seed=0)
        solver = TaskDistributedSolver(new, tau, decomp, dt_min)
        st = LTSState(U2)
        solver.run_iteration(st)
        from repro.solver import pressure

        assert pressure(st.U).min() > 0
