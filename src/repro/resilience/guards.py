"""Physics guards: post-iteration validation of the solver state.

After every (sub)iteration a campaign can validate its
:class:`~repro.solver.lts.LTSState`:

* no NaN/Inf anywhere in ``U`` or the flux accumulators (the symptom
  of silent data corruption — e.g. a bit flip or an injected NaN);
* density and pressure strictly above configurable floors (the symptom
  of a CFL violation or a bad flux evaluation);
* the conserved totals (mass/energy, which the LTS scheme preserves to
  machine precision in the absence of boundary outflow) within a
  relative drift bound of a reference.

A failed check makes :class:`~repro.solver.driver.SimulationDriver`
roll back to its last snapshot, an :meth:`LTSState.copy
<repro.solver.lts.LTSState.copy>` taken before the iteration, and
restore another copy of it: fresh arrays and a fresh deposit lock, so
a worker thread abandoned by the watchdog can never scribble on the
restored state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mesh.structures import Mesh
from ..solver.euler import pressure
from ..solver.lts import LTSState

__all__ = ["GuardConfig", "GuardReport", "check_state"]


#: Strict lower bound on every cell's pressure.
_MIN_PRESSURE = 0.0
#: Conserved components the drift check reads: momentum is exchanged
#: with the boundary (pressure forces), so mass (0) and energy (3) are
#: the meaningful invariants.
_DRIFT_COMPONENTS = (0, 3)


@dataclass(frozen=True)
class GuardConfig:
    """What the physics guards enforce.

    Parameters
    ----------
    min_density:
        Strict lower bound on cell density (pressure must stay above
        ``_MIN_PRESSURE``, zero).
    max_drift:
        Relative drift bound on the conserved totals versus the
        reference (``None`` disables the drift check), for mass and
        energy (``_DRIFT_COMPONENTS``).
    max_consecutive_rollbacks:
        Consecutive failed iterations before the campaign gives up
        with a :class:`~repro.resilience.errors.PhysicsGuardError`.
    """

    min_density: float = 0.0
    max_drift: float | None = 1e-6
    max_consecutive_rollbacks: int = 3


@dataclass
class GuardReport:
    """Outcome of one :func:`check_state` call."""

    ok: bool
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _finite_violation(name: str, arr: np.ndarray) -> str | None:
    bad = ~np.isfinite(arr)
    if bad.any():
        cells = np.unique(np.argwhere(bad)[:, 0])[:5]
        return (
            f"{name} has {int(bad.sum())} non-finite entries "
            f"(first cells: {cells.tolist()})"
        )
    return None


def check_state(
    mesh: Mesh,
    state: LTSState,
    config: GuardConfig = GuardConfig(),
    *,
    reference_total: np.ndarray | None = None,
) -> GuardReport:
    """Validate a solver state; returns a report, never raises.

    ``reference_total`` is the conserved-total vector
    (:meth:`LTSState.conserved_total`) the drift check compares
    against — typically taken from the rollback snapshot.
    """
    violations: list[str] = []
    for name, arr in (
        ("U", state.U),
        ("acc", state.acc),
        ("acc2", state.acc2),
    ):
        msg = _finite_violation(name, arr)
        if msg:
            violations.append(msg)

    # Primitive-variable floors are meaningless on non-finite data.
    if not violations:
        rho = state.U[:, 0]
        low = rho <= config.min_density
        if low.any():
            worst = int(np.argmin(rho))
            violations.append(
                f"{int(low.sum())} cells at or below density floor "
                f"{config.min_density:g} (worst: cell {worst}, "
                f"rho={rho[worst]:.3e})"
            )
        p = pressure(state.U)
        low = p <= _MIN_PRESSURE
        if low.any():
            worst = int(np.argmin(p))
            violations.append(
                f"{int(low.sum())} cells at or below pressure floor "
                f"{_MIN_PRESSURE:g} (worst: cell {worst}, "
                f"p={p[worst]:.3e})"
            )
        if config.max_drift is not None and reference_total is not None:
            total = state.conserved_total(mesh)
            for c in _DRIFT_COMPONENTS:
                ref = float(reference_total[c])
                drift = abs(float(total[c]) - ref) / max(abs(ref), 1.0)
                if drift > config.max_drift:
                    violations.append(
                        f"conserved component {c} drifted by {drift:.3e} "
                        f"(bound {config.max_drift:g}): "
                        f"{ref:.12e} -> {float(total[c]):.12e}"
                    )
    return GuardReport(ok=not violations, violations=violations)
