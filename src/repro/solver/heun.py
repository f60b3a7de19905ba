"""Reference global integrators (uniform time step).

The production solver integrates with local time stepping through the
task graph (:mod:`repro.solver.lts` / :mod:`repro.solver.runner`);
this module provides the classical *global* integrators — forward
Euler and second-order Heun — used to validate the finite-volume
machinery (convergence, conservation) and as the accuracy reference
for the local-time-stepping scheme.
"""

from __future__ import annotations

import numpy as np

from ..mesh.structures import Mesh
from .euler import rusanov_flux

__all__ = ["residual", "euler_step", "heun_step", "integrate"]


def residual(mesh: Mesh, U: np.ndarray) -> np.ndarray:
    """Spatial residual ``dU/dt = −(1/V) Σ_f F·n A_f`` (Rusanov flux).

    Boundary faces use transmissive (zero-gradient) conditions: the
    boundary state equals the interior state.
    """
    a = mesh.face_cells[:, 0]
    b = mesh.face_cells[:, 1]
    interior = b >= 0
    UL = U[a]
    UR = UL.copy()
    UR[interior] = U[b[interior]]
    F = rusanov_flux(UL, UR, mesh.face_normal[:, 0], mesh.face_normal[:, 1])
    w = F * mesh.face_area[:, None]
    out = np.zeros_like(U)
    np.add.at(out, a, -w)
    np.add.at(out, b[interior], w[interior])
    return out / mesh.cell_volumes[:, None]


def euler_step(mesh: Mesh, U: np.ndarray, dt: float) -> np.ndarray:
    """One forward-Euler step (first order)."""
    return U + dt * residual(mesh, U)


def heun_step(mesh: Mesh, U: np.ndarray, dt: float) -> np.ndarray:
    """One Heun (SSP-RK2) step — the paper's second-order method."""
    R0 = residual(mesh, U)
    U1 = U + dt * R0
    R1 = residual(mesh, U1)
    return U + 0.5 * dt * (R0 + R1)


def integrate(
    mesh: Mesh,
    U: np.ndarray,
    t_end: float,
    *,
    cfl: float = 0.4,
    method: str = "heun",
    max_steps: int = 100_000,
) -> tuple[np.ndarray, int]:
    """Advance to ``t_end`` with a uniform (global-minimum) time step
    and the Rusanov flux.

    Returns ``(U, steps)``.
    """
    from .timestep import stable_timesteps

    step = heun_step if method == "heun" else euler_step
    t = 0.0
    steps = 0
    while t < t_end - 1e-15:
        dt = float(stable_timesteps(mesh, U, cfl=cfl).min())
        dt = min(dt, t_end - t)
        U = step(mesh, U, dt)
        t += dt
        steps += 1
        if steps >= max_steps:
            raise RuntimeError("integrate: max_steps exceeded")
    return U, steps
