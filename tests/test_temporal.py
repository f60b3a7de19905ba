"""Tests for temporal levels, operating costs and the subiteration
scheme."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import (
    active_levels,
    assign_levels_by_fraction,
    face_levels,
    levels_from_depth,
    levels_from_timestep,
    num_subiterations,
    operating_costs,
    subiteration_tau_max,
)
from repro.temporal.levels import relevel_with_hysteresis


def is_active(tau: int, s: int) -> bool:
    return tau in active_levels(s, tau)


def activations_per_level(tau_max: int) -> np.ndarray:
    """How many phases of one iteration each level takes part in."""
    nsub = num_subiterations(tau_max)
    levels = [t for s in range(nsub) for t in active_levels(s, tau_max)]
    return np.bincount(levels, minlength=tau_max + 1)


class TestLevelsFromDepth:
    def test_finest_is_zero(self, small_mesh):
        tau = levels_from_depth(small_mesh)
        assert tau[np.argmax(small_mesh.cell_depth)] == 0

    def test_octave_structure(self, small_mesh):
        tau = levels_from_depth(small_mesh)
        d = small_mesh.cell_depth
        np.testing.assert_array_equal(tau, d.max() - d)

    def test_clipping(self, small_mesh):
        tau = levels_from_depth(small_mesh, num_levels=2)
        assert tau.max() == 1

    def test_bad_num_levels(self, small_mesh):
        with pytest.raises(ValueError):
            levels_from_depth(small_mesh, num_levels=0)


class TestLevelsFromTimestep:
    def test_octaves(self):
        dt = np.array([1.0, 2.0, 4.0, 8.0, 3.9])
        np.testing.assert_array_equal(
            levels_from_timestep(dt), [0, 1, 2, 3, 1]
        )

    def test_scaling_invariance(self):
        dt = np.array([1.0, 2.0, 5.0])
        np.testing.assert_array_equal(
            levels_from_timestep(dt), levels_from_timestep(dt * 1e-6)
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            levels_from_timestep(np.array([1.0, 0.0]))

    def test_clip(self):
        dt = np.array([1.0, 100.0])
        assert levels_from_timestep(dt, num_levels=3).max() == 2


class TestHysteresisReleveling:
    def test_no_change_within_band(self):
        """Small dt wobbles inside the octave band leave τ alone."""
        tau_old = np.array([0, 1, 2])
        dt = np.array([1.3, 2.5, 5.0])  # x ≈ 0.38, 1.32, 2.32
        out = relevel_with_hysteresis(dt, tau_old, 1.0)
        np.testing.assert_array_equal(out, tau_old)

    def test_unsafe_cell_demoted_immediately(self):
        """dt below the band is a stability issue: no hysteresis."""
        out = relevel_with_hysteresis(
            np.array([1.9]), np.array([1]), 1.0
        )
        assert out[0] == 0

    def test_promotion_needs_margin(self):
        # x = 1.05 with τ_old = 0: inside the margin → stay.
        stay = relevel_with_hysteresis(
            np.array([2.0 ** 1.05]), np.array([0]), 1.0
        )
        assert stay[0] == 0
        # x = 1.3: beyond the margin → promoted.
        go = relevel_with_hysteresis(
            np.array([2.0 ** 1.3]), np.array([0]), 1.0
        )
        assert go[0] == 1

    def test_clamped_to_range(self):
        out = relevel_with_hysteresis(
            np.array([0.1, 1000.0]),
            np.array([0, 0]),
            1.0,
            num_levels=3,
        )
        assert out[0] == 0  # cannot go below 0
        assert out[1] == 2  # capped at num_levels-1

    def test_result_is_cfl_safe(self):
        """After re-leveling, 2^τ·dt_ref never exceeds the cell dt for
        promoted/demoted cells."""
        rng = np.random.default_rng(0)
        dt = rng.uniform(1.0, 20.0, 500)
        tau_old = levels_from_timestep(dt)
        dt2 = dt * rng.uniform(0.5, 2.0, 500)
        out = relevel_with_hysteresis(dt2, tau_old, float(dt.min()))
        changed = out != tau_old
        assert np.all(np.exp2(out[changed]) * dt.min() <= dt2[changed] * (1 + 1e-12))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            relevel_with_hysteresis(np.array([1.0]), np.array([0]), 0.0)
        with pytest.raises(ValueError):
            relevel_with_hysteresis(np.array([-1.0]), np.array([0]), 1.0)


class TestAssignByFraction:
    def test_exact_fractions(self, small_cube_mesh):
        frac = np.array([0.1, 0.3, 0.6])
        tau = assign_levels_by_fraction(small_cube_mesh, frac)
        counts = np.bincount(tau, minlength=3)
        np.testing.assert_allclose(
            counts / counts.sum(), frac, atol=1.0 / small_cube_mesh.num_cells
        )

    def test_monotone_in_volume(self, small_cube_mesh):
        tau = assign_levels_by_fraction(
            small_cube_mesh, np.array([0.2, 0.3, 0.5])
        )
        v = small_cube_mesh.cell_volumes
        for t in range(2):
            assert v[tau == t].max() <= v[tau == t + 1].min() + 1e-12

    def test_rejects_bad_fractions(self, small_cube_mesh):
        with pytest.raises(ValueError):
            assign_levels_by_fraction(small_cube_mesh, np.array([0.5, 0.6]))


class TestOperatingCosts:
    def test_values(self):
        np.testing.assert_array_equal(
            operating_costs(np.array([0, 1, 2, 3])), [8, 4, 2, 1]
        )

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            operating_costs(np.array([2, -1]))


class TestScheme:
    def test_num_subiterations(self):
        assert num_subiterations(0) == 1
        assert num_subiterations(3) == 8

    def test_activity_rule(self):
        # τ=0 always, τ=1 every other, τ=2 at 0 and 4, ...
        assert bool(is_active(0, 3)) is True
        assert bool(is_active(1, 3)) is False
        assert bool(is_active(1, 2)) is True
        assert bool(is_active(2, 4)) is True
        assert bool(is_active(2, 6)) is False

    def test_paper_figure4_pattern(self):
        """Fig. 4: τ_max=2, subiterations 0..3; τ=1 active at 0 and 2;
        τ=2 only at 0."""
        active = {
            s: [t for t in range(3) if is_active(t, s)] for s in range(4)
        }
        assert active == {0: [0, 1, 2], 1: [0], 2: [0, 1], 3: [0]}

    def test_tau_max_of_subiteration(self):
        assert subiteration_tau_max(0, 2) == 2
        assert subiteration_tau_max(1, 2) == 0
        assert subiteration_tau_max(2, 2) == 1
        assert subiteration_tau_max(4, 2) == 2  # capped at mesh max

    def test_active_levels_descending(self):
        assert active_levels(0, 2) == [2, 1, 0]
        assert active_levels(2, 2) == [1, 0]

    def test_schedule_activations_equal_operating_costs(self):
        """Consistency: the schedule activates level τ exactly
        2^(τmax−τ) times per iteration."""
        for tau_max in range(5):
            np.testing.assert_array_equal(
                activations_per_level(tau_max),
                operating_costs(np.arange(tau_max + 1)),
            )

    def test_phase_count(self):
        assert num_subiterations(2) == 4
        assert sum(len(active_levels(s, 2)) for s in range(4)) == 4 + 2 + 1

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_all_levels_meet_at_iteration_end(self, tau_max):
        """After a full iteration every level has advanced the same
        total time: count(τ) · 2^τ = 2^τmax."""
        acts = activations_per_level(tau_max)
        for t in range(tau_max + 1):
            assert acts[t] * (1 << t) == 1 << tau_max


class TestFaceLevels:
    def test_min_rule(self, small_cube_mesh, small_cube_tau):
        fl = face_levels(small_cube_mesh, small_cube_tau)
        interior = small_cube_mesh.interior_faces()
        a = small_cube_mesh.face_cells[interior, 0]
        b = small_cube_mesh.face_cells[interior, 1]
        np.testing.assert_array_equal(
            fl[interior],
            np.minimum(small_cube_tau[a], small_cube_tau[b]),
        )

    def test_boundary_inherits_cell_level(self, small_cube_mesh, small_cube_tau):
        fl = face_levels(small_cube_mesh, small_cube_tau)
        bnd = small_cube_mesh.boundary_faces()
        a = small_cube_mesh.face_cells[bnd, 0]
        np.testing.assert_array_equal(fl[bnd], small_cube_tau[a])
