"""Initial conditions for the mini-FLUSEPA solver.

Three families mirroring the paper's motivating applications
(§I: "launcher stage separation, blast wave propagation during rocket
take-off, aircraft propeller/jet noise"):

* a quiescent atmosphere (trivial steady state, used in tests);
* a **blast wave** — Gaussian pressure pulse;
* a **jet** — high-velocity stream entering a quiescent medium, the
  PPRIME-nozzle-like configuration.
"""

from __future__ import annotations

import numpy as np

from ..mesh.structures import Mesh
from .euler import primitive_to_conservative

__all__ = ["quiescent", "blast_wave", "jet_flow"]

#: Density and pressure of the fluid at rest around every disturbance.
RHO_AMBIENT = 1.0
P_AMBIENT = 1.0


def _exp_neg(t: np.ndarray) -> np.ndarray:
    """``exp(−t)`` for ``t ≥ 0`` from ``+ × ÷`` only, by scaling and
    squaring: the degree-10 Taylor sum of ``exp(t/64)``, inverted and
    squared six times (within 3e-14 of ``np.exp``).  IEEE 754 rounds
    these operations alike on every host, so a state built on it does
    not depend on the CPU's SIMD kernels the way ``np.exp`` does."""
    x = t / 64.0
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 11):
        term = term * x / k
        total = total + term
    g = 1.0 / total
    for _ in range(6):
        g = g * g
    return g


def quiescent(mesh: Mesh) -> np.ndarray:
    """Uniform fluid at rest — an exact steady state of the scheme."""
    n = mesh.num_cells
    return primitive_to_conservative(
        np.full(n, RHO_AMBIENT),
        np.zeros(n),
        np.zeros(n),
        np.full(n, P_AMBIENT),
    )


def blast_wave(
    mesh: Mesh,
    *,
    center: tuple[float, float] = (0.5, 0.5),
    radius: float = 0.1,
    p_ratio: float = 10.0,
) -> np.ndarray:
    """Gaussian pressure pulse of amplitude ``p_ratio × P_AMBIENT`` and
    width ``radius`` — the blast-wave scenario."""
    dx = mesh.cell_centers[:, 0] - center[0]
    dy = mesh.cell_centers[:, 1] - center[1]
    bump = _exp_neg((dx * dx + dy * dy) / (radius * radius))
    p = P_AMBIENT * (1.0 + (p_ratio - 1.0) * bump)
    n = mesh.num_cells
    return primitive_to_conservative(
        np.full(n, RHO_AMBIENT), np.zeros(n), np.zeros(n), p
    )


def jet_flow(
    mesh: Mesh,
    *,
    axis_y: float = 0.5,
    jet_half_width: float = 0.02,
    mach: float = 0.8,
) -> np.ndarray:
    """A streamwise jet near ``y = axis_y``: velocity decays smoothly
    away from the axis and downstream of ``x = 0.3`` (the nozzle-jet
    scenario driving the PPRIME mesh refinement).  Its ``exp`` and
    ``tanh`` make it host-dependent in the last bits, so no digest
    uses it."""
    from .euler import GAMMA

    x = mesh.cell_centers[:, 0]
    y = mesh.cell_centers[:, 1]
    c = np.sqrt(GAMMA * P_AMBIENT / RHO_AMBIENT)
    profile = np.exp(-((y - axis_y) / jet_half_width) ** 2 / 2.0)
    stream = 0.5 * (1.0 - np.tanh((x - 0.3) / 0.1))
    u = mach * c * profile * stream
    n = mesh.num_cells
    return primitive_to_conservative(
        np.full(n, RHO_AMBIENT), u, np.zeros(n), np.full(n, P_AMBIENT)
    )
