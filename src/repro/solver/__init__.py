"""Mini-FLUSEPA: 2D compressible-Euler finite-volume solver with
temporal-adaptive local time stepping, executable through the task
graph."""

from .euler import (
    GAMMA,
    conservative_to_primitive,
    max_wave_speed,
    physical_flux,
    pressure,
    primitive_to_conservative,
    rusanov_flux,
    sound_speed,
)
from .heun import euler_step, heun_step, integrate, residual
from .lts import (
    LTSState,
    accumulate_face_fluxes,
    apply_cell_updates,
    lts_iteration,
)
from .runner import IterationResult, TaskDistributedSolver
from .state import blast_wave, jet_flow, quiescent
from .timestep import stable_timesteps

__all__ = [
    "GAMMA",
    "primitive_to_conservative",
    "conservative_to_primitive",
    "pressure",
    "sound_speed",
    "max_wave_speed",
    "physical_flux",
    "rusanov_flux",
    "residual",
    "euler_step",
    "heun_step",
    "integrate",
    "LTSState",
    "accumulate_face_fluxes",
    "apply_cell_updates",
    "lts_iteration",
    "TaskDistributedSolver",
    "IterationResult",
    "blast_wave",
    "jet_flow",
    "quiescent",
    "stable_timesteps",
]
