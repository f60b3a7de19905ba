"""Resilience layer: fault injection, physics guards, checkpoints.

FLUSEPA-class campaigns run for thousands of iterations; this package
gives the reproduction the machinery to survive what such runs
actually meet — transient task failures, stragglers/hangs, silent data
corruption, and whole-process death:

* :mod:`~repro.resilience.faults` — deterministic, seeded fault
  injection to make the rest *testable*;
* :mod:`~repro.resilience.guards` — post-iteration physics validation
  (the rollback snapshot is an :meth:`LTSState.copy
  <repro.solver.lts.LTSState.copy>`);
* :mod:`~repro.resilience.checkpoint` — atomic on-disk campaign
  checkpoints and restart;
* :mod:`~repro.resilience.errors` — the shared exception hierarchy
  (the executor's retry/watchdog machinery in
  :mod:`repro.runtime.executor` builds on it);
* :mod:`~repro.resilience.sentinel` — the serve daemon's hysteretic
  ``OK/SOFT/HARD`` pressure verdict from available memory and free
  disk.
"""

from .checkpoint import (
    Checkpoint,
    find_latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .errors import (
    CheckpointError,
    CircuitOpenError,
    PartitionError,
    PartitionInternalError,
    PartitionQualityError,
    PhysicsGuardError,
    QueueFull,
    ResilienceError,
    TaskTimeoutError,
    TransientError,
)
from .faults import FaultPlan, FaultSpec
from .sentinel import (
    PressureSample,
    PressureState,
    ResourceSentinel,
    SentinelConfig,
)

_GUARD_NAMES = ("GuardConfig", "GuardReport", "check_state")


def __getattr__(name: str):
    # Lazy: guards pulls in the solver stack, which depends (via the
    # partitioning strategies) on the graph layer — and the graph layer
    # imports this package for its error types.  Deferring the guards
    # import keeps the low-level graph layer free of that cycle.
    if name in _GUARD_NAMES:
        from . import guards

        return getattr(guards, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ResilienceError",
    "TransientError",
    "TaskTimeoutError",
    "PhysicsGuardError",
    "CheckpointError",
    "QueueFull",
    "CircuitOpenError",
    "PartitionError",
    "PartitionInternalError",
    "PartitionQualityError",
    "FaultSpec",
    "FaultPlan",
    "PressureState",
    "PressureSample",
    "SentinelConfig",
    "ResourceSentinel",
    "GuardConfig",
    "GuardReport",
    "check_state",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "find_latest_checkpoint",
]
