"""Tests for the Euler flux functions and reference integrators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import uniform_mesh
from repro.solver import (
    GAMMA,
    blast_wave,
    conservative_to_primitive,
    euler_step,
    heun_step,
    integrate,
    jet_flow,
    max_wave_speed,
    physical_flux,
    pressure,
    primitive_to_conservative,
    quiescent,
    residual,
    rusanov_flux,
    sound_speed,
)


def random_states(rng, n):
    rho = rng.uniform(0.1, 5.0, n)
    u = rng.uniform(-2, 2, n)
    v = rng.uniform(-2, 2, n)
    p = rng.uniform(0.1, 10.0, n)
    return primitive_to_conservative(rho, u, v, p)


class TestConversions:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        U = random_states(rng, 100)
        rho, u, v, p = conservative_to_primitive(U)
        U2 = primitive_to_conservative(rho, u, v, p)
        np.testing.assert_allclose(U, U2, rtol=1e-12)

    def test_pressure_positive_state(self):
        U = primitive_to_conservative(
            np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([2.5])
        )
        assert pressure(U)[0] == pytest.approx(2.5)

    def test_sound_speed(self):
        U = primitive_to_conservative(
            np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([1.0])
        )
        assert sound_speed(U)[0] == pytest.approx(np.sqrt(GAMMA))

    def test_rejects_negative_density(self):
        U = np.array([[-1.0, 0, 0, 1.0]])
        with pytest.raises(FloatingPointError):
            conservative_to_primitive(U)


class TestFluxes:
    @pytest.mark.parametrize("flux", [rusanov_flux])
    def test_consistency(self, flux):
        """F(U, U) must equal the physical flux (consistency)."""
        rng = np.random.default_rng(1)
        U = random_states(rng, 50)
        nx = np.full(50, 1.0)
        ny = np.zeros(50)
        np.testing.assert_allclose(
            flux(U, U, nx, ny), physical_flux(U, nx, ny), rtol=1e-10
        )

    @pytest.mark.parametrize("flux", [rusanov_flux])
    def test_rotation_symmetry(self, flux):
        """Mirroring the normal and swapping sides negates the flux
        (conservation across the face)."""
        rng = np.random.default_rng(2)
        UL = random_states(rng, 20)
        UR = random_states(rng, 20)
        nx = np.full(20, 0.6)
        ny = np.full(20, 0.8)
        F1 = flux(UL, UR, nx, ny)
        F2 = flux(UR, UL, -nx, -ny)
        np.testing.assert_allclose(F1, -F2, rtol=1e-9, atol=1e-9)

    def test_mass_flux_zero_at_rest(self):
        UL = primitive_to_conservative(
            np.array([1.0]), np.array([0.0]), np.array([0.0]), np.array([1.0])
        )
        UR = UL.copy()
        F = rusanov_flux(UL, UR, np.array([1.0]), np.array([0.0]))
        assert F[0, 0] == pytest.approx(0.0)
        assert F[0, 1] == pytest.approx(1.0)  # pressure term


class TestResidualAndIntegrators:
    def test_quiescent_steady(self, flat_mesh):
        """Uniform fluid at rest is an exact steady state."""
        U = quiescent(flat_mesh)
        R = residual(flat_mesh, U)
        np.testing.assert_allclose(R, 0.0, atol=1e-12)

    def test_uniform_flow_interior_steady(self, flat_mesh):
        """Uniform moving flow: interior residual vanishes (boundary
        cells feel the transmissive condition)."""
        n = flat_mesh.num_cells
        U = primitive_to_conservative(
            np.full(n, 1.0), np.full(n, 0.5), np.full(n, 0.2), np.full(n, 1.0)
        )
        R = residual(flat_mesh, U)
        np.testing.assert_allclose(R, 0.0, atol=1e-11)

    def test_mass_conservation_blast(self, flat_mesh):
        """Total mass is conserved (transmissive walls carry no mass
        flux while the disturbance stays interior)."""
        U = blast_wave(flat_mesh, radius=0.05)
        V = flat_mesh.cell_volumes[:, None]
        m0 = (U * V).sum(axis=0)[0]
        U1, _ = integrate(flat_mesh, U, 0.005, cfl=0.4)
        m1 = (U1 * V).sum(axis=0)[0]
        assert m1 == pytest.approx(m0, rel=1e-10)

    def test_blast_wave_expands(self, flat_mesh):
        U = blast_wave(flat_mesh, radius=0.08, p_ratio=5.0)
        p0 = pressure(U)
        U1, _ = integrate(flat_mesh, U, 0.01)
        p1 = pressure(U1)
        # Peak pressure decays as the wave expands.
        assert p1.max() < p0.max()
        # Pressure field stays physical.
        assert p1.min() > 0

    def test_heun_more_accurate_than_euler(self):
        """Advecting a smooth density bump: Heun's error is smaller."""
        mesh = uniform_mesh(depth=5)
        n = mesh.num_cells
        x = mesh.cell_centers[:, 0]
        y = mesh.cell_centers[:, 1]
        rho = 1.0 + 0.2 * np.exp(
            -((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.02
        )
        U0 = primitive_to_conservative(
            rho, np.full(n, 1.0), np.zeros(n), np.full(n, 10.0)
        )
        # Nearly-incompressible advection; reference = fine-step Heun.
        t_end = 0.02
        ref, _ = integrate(mesh, U0, t_end, cfl=0.05, method="heun")
        Ue, _ = integrate(mesh, U0, t_end, cfl=0.45, method="euler")
        Uh, _ = integrate(mesh, U0, t_end, cfl=0.45, method="heun")
        err_e = np.abs(Ue[:, 0] - ref[:, 0]).max()
        err_h = np.abs(Uh[:, 0] - ref[:, 0]).max()
        assert err_h < err_e

    def test_integrate_step_counting(self, flat_mesh):
        U = quiescent(flat_mesh)
        _, steps = integrate(flat_mesh, U, 1e-4, cfl=0.4)
        assert steps >= 1

    def test_jet_flow_profile(self, flat_mesh):
        U = jet_flow(flat_mesh, mach=0.5)
        _, u, _, _ = conservative_to_primitive(U)
        y = flat_mesh.cell_centers[:, 1]
        on_axis = np.abs(y - 0.5) < 0.05
        off_axis = np.abs(y - 0.5) > 0.3
        assert u[on_axis].max() > 5 * max(u[off_axis].max(), 1e-12)


class TestFluxProperties:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_rusanov_dissipativity(self, seed):
        """Rusanov flux difference from central flux is dissipative:
        the correction opposes the jump (UR − UL)."""
        rng = np.random.default_rng(seed)
        UL = random_states(rng, 1)
        UR = random_states(rng, 1)
        nx, ny = np.array([1.0]), np.array([0.0])
        F = rusanov_flux(UL, UR, nx, ny)
        central = 0.5 * (
            physical_flux(UL, nx, ny) + physical_flux(UR, nx, ny)
        )
        smax = max(max_wave_speed(UL)[0], max_wave_speed(UR)[0])
        np.testing.assert_allclose(
            F, central - 0.5 * smax * (UR - UL), rtol=1e-12
        )
