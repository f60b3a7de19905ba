"""Temporal-adaptive integration scheme: levels, costs, schedules."""

from .levels import (
    assign_levels_by_fraction,
    face_levels,
    levels_from_depth,
    levels_from_timestep,
    operating_costs,
)
from .scheme import active_levels, num_subiterations, subiteration_tau_max

__all__ = [
    "levels_from_depth",
    "levels_from_timestep",
    "assign_levels_by_fraction",
    "operating_costs",
    "face_levels",
    "num_subiterations",
    "active_levels",
    "subiteration_tau_max",
]
