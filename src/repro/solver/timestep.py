"""CFL-stable time steps and the temporal levels they induce.

"The maximum time step allowed for a cell depends mainly on its
volume" (paper §I).  For an explicit FV scheme the standard bound is

    Δt_c ≤ CFL · V_c / Σ_f (|u·n| + c)_f A_f ,

the sum running over the cell's faces.  Temporal levels follow as the
octave of each cell's Δt above the global minimum
(:func:`repro.temporal.levels.levels_from_timestep`).
"""

from __future__ import annotations

import numpy as np

from ..mesh.structures import Mesh
from .euler import max_wave_speed

__all__ = ["stable_timesteps"]


def stable_timesteps(
    mesh: Mesh, U: np.ndarray, *, cfl: float = 0.4
) -> np.ndarray:
    """Per-cell CFL-stable time step for state ``U``."""
    a = mesh.face_cells[:, 0]
    b = mesh.face_cells[:, 1]
    interior = b >= 0
    s = max_wave_speed(U)
    # Face signal speed: max of adjacent cell speeds.
    sf = s[a].copy()
    sf[interior] = np.maximum(sf[interior], s[b[interior]])
    contrib = sf * mesh.face_area
    denom = np.zeros(mesh.num_cells)
    np.add.at(denom, a, contrib)
    np.add.at(denom, b[interior], contrib[interior])
    denom = np.maximum(denom, 1e-300)
    return cfl * mesh.cell_volumes / denom

