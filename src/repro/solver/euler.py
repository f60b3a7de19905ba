"""2D compressible Euler equations: state conversions and the
numerical flux.

The conserved state is ``U = [ρ, ρu, ρv, E]`` per cell.  Fluxes are
evaluated on faces with the Rusanov (local Lax–Friedrichs) solver,
rotated to the face normal.  All functions are fully vectorized over
faces/cells.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GAMMA",
    "primitive_to_conservative",
    "conservative_to_primitive",
    "pressure",
    "sound_speed",
    "max_wave_speed",
    "physical_flux",
    "rusanov_flux",
]

#: Ratio of specific heats (diatomic gas).
GAMMA = 1.4


def primitive_to_conservative(
    rho: np.ndarray, u: np.ndarray, v: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Pack primitive variables ``(ρ, u, v, p)`` into ``U`` of shape
    ``(..., 4)``."""
    E = p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v)
    return np.stack([rho, rho * u, rho * v, E], axis=-1)


def conservative_to_primitive(
    U: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unpack ``U`` into ``(ρ, u, v, p)``; raises on non-physical
    states (ρ ≤ 0 or p ≤ 0)."""
    rho = U[..., 0]
    if np.any(rho <= 0):
        raise FloatingPointError("non-positive density")
    u = U[..., 1] / rho
    v = U[..., 2] / rho
    p = (GAMMA - 1.0) * (U[..., 3] - 0.5 * rho * (u * u + v * v))
    if np.any(p <= 0):
        raise FloatingPointError("non-positive pressure")
    return rho, u, v, p


def pressure(U: np.ndarray) -> np.ndarray:
    """Pressure from the conserved state."""
    rho = U[..., 0]
    u = U[..., 1] / rho
    v = U[..., 2] / rho
    return (GAMMA - 1.0) * (U[..., 3] - 0.5 * rho * (u * u + v * v))


def sound_speed(U: np.ndarray) -> np.ndarray:
    """Speed of sound ``c = sqrt(γ p / ρ)``."""
    return np.sqrt(GAMMA * pressure(U) / U[..., 0])


def max_wave_speed(U: np.ndarray) -> np.ndarray:
    """``|velocity| + c`` — the fastest signal speed per state."""
    rho = U[..., 0]
    speed = np.hypot(U[..., 1], U[..., 2]) / rho
    return speed + sound_speed(U)


def physical_flux(U: np.ndarray, nx: np.ndarray, ny: np.ndarray) -> np.ndarray:
    """Euler flux ``F(U)·n`` through faces with unit normals
    ``(nx, ny)``."""
    rho, u, v, p = conservative_to_primitive(U)
    un = u * nx + v * ny
    E = U[..., 3]
    return np.stack(
        [
            rho * un,
            rho * u * un + p * nx,
            rho * v * un + p * ny,
            (E + p) * un,
        ],
        axis=-1,
    )


def rusanov_flux(
    UL: np.ndarray, UR: np.ndarray, nx: np.ndarray, ny: np.ndarray
) -> np.ndarray:
    """Rusanov (local Lax–Friedrichs) numerical flux.

    ``F = ½(F(UL) + F(UR))·n − ½ s_max (UR − UL)`` with ``s_max`` the
    largest signal speed of the two states.
    """
    FL = physical_flux(UL, nx, ny)
    FR = physical_flux(UR, nx, ny)
    smax = np.maximum(max_wave_speed(UL), max_wave_speed(UR))
    return 0.5 * (FL + FR) - 0.5 * smax[..., None] * (UR - UL)
