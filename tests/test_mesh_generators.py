"""Tests for the replica mesh generators and Table I statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh import (
    cube_mesh,
    cylinder_mesh,
    format_table1_row,
    level_statistics,
    pprime_nozzle_mesh,
)
from repro.mesh.generators import PAPER_CELL_FRACTIONS
from repro.temporal import levels_from_depth
from tests.oracles.invariants import validate_mesh

# Reduced depths keep the test suite fast; distribution *shapes* are
# checked at these scales, exact Table I numbers in the benchmarks.
CASES = {
    "cylinder": (lambda: cylinder_mesh(max_depth=9), 4),
    "cube": (lambda: cube_mesh(max_depth=9), 4),
    "pprime_nozzle": (lambda: pprime_nozzle_mesh(max_depth=8), 3),
}


@pytest.fixture(scope="module")
def meshes():
    return {
        name: (factory(), nlev) for name, (factory, nlev) in CASES.items()
    }


class TestGenerators:
    @pytest.mark.parametrize("name", list(CASES))
    def test_valid(self, meshes, name):
        validate_mesh(meshes[name][0])

    @pytest.mark.parametrize("name", list(CASES))
    def test_level_count(self, meshes, name):
        mesh, nlev = meshes[name]
        tau = levels_from_depth(mesh, num_levels=nlev)
        assert tau.max() == nlev - 1
        assert tau.min() == 0

    @pytest.mark.parametrize("name", list(CASES))
    def test_coarse_majority(self, meshes, name):
        """All the paper's meshes have a majority of coarse cells."""
        mesh, nlev = meshes[name]
        tau = levels_from_depth(mesh, num_levels=nlev)
        st = level_statistics(mesh, tau)
        assert st.cell_fraction[-1] > 0.4
        assert st.cell_fraction[0] < 0.2

    @pytest.mark.parametrize("name", list(CASES))
    def test_monotone_geometry(self, meshes, name):
        """Finer temporal level ⇒ smaller cells (CFL consistency)."""
        mesh, nlev = meshes[name]
        tau = levels_from_depth(mesh, num_levels=nlev)
        for t in range(nlev - 1):
            assert (
                mesh.cell_volumes[tau == t].max()
                <= mesh.cell_volumes[tau == t + 1].min() + 1e-12
            )

    def test_cube_has_three_hotspots(self):
        """The fine cells must form ≥3 spatially separated clusters."""
        mesh = cube_mesh(max_depth=9)
        tau = levels_from_depth(mesh, num_levels=4)
        fine = mesh.cell_centers[tau == 0]
        centers = np.array([[0.2, 0.25], [0.75, 0.3], [0.45, 0.8]])
        # Every fine cell is near one hotspot, and each hotspot has some.
        d = np.linalg.norm(fine[:, None, :] - centers[None], axis=2)
        nearest = d.min(axis=1)
        assert nearest.max() < 0.05
        counts = np.bincount(d.argmin(axis=1), minlength=3)
        assert np.all(counts > 0)

    def test_cube_tau2_is_rare(self):
        """The paper's CUBE quirk: τ=2 is a thin shell (0.3% there)."""
        mesh = cube_mesh(max_depth=9)
        tau = levels_from_depth(mesh, num_levels=4)
        st = level_statistics(mesh, tau)
        assert st.cell_fraction[2] < 0.05
        assert st.cell_fraction[2] < st.cell_fraction[1]

    def test_cylinder_fine_cells_form_ring(self):
        mesh = cylinder_mesh(max_depth=9)
        tau = levels_from_depth(mesh, num_levels=4)
        r = np.hypot(
            mesh.cell_centers[tau == 0, 0] - 0.5,
            mesh.cell_centers[tau == 0, 1] - 0.5,
        )
        assert r.min() > 0.005
        assert r.max() < 0.05

    def test_nozzle_fine_cells_follow_plume(self):
        mesh = pprime_nozzle_mesh(max_depth=8)
        tau = levels_from_depth(mesh, num_levels=3)
        fine = mesh.cell_centers[tau == 0]
        assert np.abs(fine[:, 1] - 0.5).max() < 0.05  # near the axis
        assert fine[:, 0].max() > 0.5  # extends downstream

    def test_default_scale_matches_paper_distribution(self):
        """At default depth the cylinder's %cells matches Table I
        within a few points per level."""
        mesh = cylinder_mesh()
        tau = levels_from_depth(mesh, num_levels=4)
        st = level_statistics(mesh, tau)
        np.testing.assert_allclose(
            st.cell_fraction, PAPER_CELL_FRACTIONS["cylinder"], atol=0.05
        )


class TestLevelStatistics:
    def test_fractions_sum_to_one(self, meshes):
        mesh, nlev = meshes["cylinder"]
        tau = levels_from_depth(mesh, num_levels=nlev)
        st = level_statistics(mesh, tau)
        assert st.cell_fraction.sum() == pytest.approx(1.0)
        assert st.computation_fraction.sum() == pytest.approx(1.0)

    def test_counts_total(self, meshes):
        mesh, nlev = meshes["cube"]
        tau = levels_from_depth(mesh, num_levels=nlev)
        st = level_statistics(mesh, tau)
        assert st.counts.sum() == mesh.num_cells == st.total_cells

    def test_computation_weighting(self):
        """%Computation must weight level τ by 2^(max−τ)."""
        mesh = cube_mesh(max_depth=8)
        tau = levels_from_depth(mesh, num_levels=4)
        st = level_statistics(mesh, tau)
        weights = st.counts * np.exp2(3 - np.arange(4))
        np.testing.assert_allclose(
            st.computation_fraction, weights / weights.sum()
        )

    def test_format_row_contains_all_levels(self, meshes):
        mesh, nlev = meshes["cylinder"]
        tau = levels_from_depth(mesh, num_levels=nlev)
        out = format_table1_row("X", level_statistics(mesh, tau))
        for t in range(nlev):
            assert f"tau={t}" in out

    def test_tau_length_mismatch_raises(self, meshes):
        mesh, _ = meshes["cube"]
        with pytest.raises(ValueError):
            level_statistics(mesh, np.zeros(3, dtype=np.int64))
