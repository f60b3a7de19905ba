"""Small shared utilities with no domain dependencies.

Kept deliberately tiny: modules here may be imported from any layer
(pipeline, service, resilience) without creating import cycles, so
nothing in this package may import from the rest of :mod:`repro`.
"""

from .forkpool import can_fork_pool
from .fsjson import atomic_write_json, read_json

__all__ = ["atomic_write_json", "can_fork_pool", "read_json"]
