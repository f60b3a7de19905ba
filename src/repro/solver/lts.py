"""Local-time-stepping (LTS) kernels.

The temporal-adaptive integration advances a cell of level τ by
``2**τ · dt_min`` at every one of its activations.  The scheme is kept
*conservative* with flux accumulators: a face of level ``τ_f`` is
evaluated at every subiteration ``s ≡ 0 (mod 2**τ_f)`` and deposits
``F · A · 2**τ_f · dt_min`` into both adjacent cells' accumulators; a
cell's activation simply applies (and clears) its accumulated budget.
Every face evaluation is applied to both sides exactly once, so the
invariant ``Σ_c U_c V_c + Σ_c acc_c = const`` holds *exactly* (up to
boundary fluxes) — the test suite checks it to machine precision.

These kernels are precisely the bodies of the task graph's FACE and
CELL tasks, and the only place a face flux is deposited or a cell is
updated: :meth:`repro.solver.runner.TaskDistributedSolver.run_task`
dispatches to them for the serial timed loop and the threaded runtime
alike.  A face task deposits under the state's lock — two concurrent
face tasks may touch the same boundary cell, and ``np.add.at`` is not
atomic — while its flux evaluation runs outside it.  Cell updates need
no lock: every cell task owns a disjoint cell set, ordered after its
deposits by the task dependencies.  A straight (task-free) phase-loop
driver is also provided as the equivalence reference.

Startup transient: with updates at window *starts* (the paper's
activity pattern, Fig. 4), a cell whose faces span several levels
applies an incomplete flux window at its very first update — its
finer faces' deposits of the same subiteration arrive in later phases.
From the second window on, every update covers a complete, balanced
window (the finer-face information simply arrives with one-window
delay).  The effect is a one-time O(dt) perturbation at level
interfaces; conservation is never affected.

Two integration schemes share the accumulator machinery:

* **euler** — one (faces, cells) sweep per phase: first order in time;
* **heun** — the paper's second-order method: stage-1 faces, predictor
  cells (``U* = U + acc/V``), stage-2 faces evaluated at the predictor
  states into a second accumulator, corrector cells
  (``U += ½(acc + acc2)/V``).  On single-level meshes this is *exactly*
  classical Heun (verified to machine precision by the tests); at
  level interfaces the stage budgets carry the same one-window lag as
  the Euler scheme.  Conservation invariant:
  ``Σ U·V + ½ Σ (acc + acc2)``.
"""

from __future__ import annotations

import threading

import numpy as np

from ..mesh.structures import Mesh
from ..temporal.scheme import active_levels, num_subiterations
from .euler import physical_flux, rusanov_flux

__all__ = [
    "LTSState",
    "accumulate_face_fluxes",
    "apply_cell_updates",
    "predictor_update",
    "corrector_update",
    "lts_iteration",
]


class LTSState:
    """Mutable solver state for local time stepping.

    Attributes
    ----------
    U:
        ``(n, 4)`` conserved variables.
    acc:
        ``(n, 4)`` stage-1 flux accumulators (∫F(U)·A dt since each
        cell's last update).
    Ustar:
        ``(n, 4)`` Heun predictor states (stage-2 input; unused by the
        forward-Euler scheme).
    acc2:
        ``(n, 4)`` stage-2 flux accumulators (∫F(U*)·A dt).
    lock:
        Serializes accumulator deposits (see
        :func:`accumulate_face_fluxes`).

    The arrays given are copied; omitted ones start as ``acc = acc2 =
    0`` and ``Ustar = U``.
    """

    def __init__(
        self,
        U: np.ndarray,
        acc: np.ndarray | None = None,
        Ustar: np.ndarray | None = None,
        acc2: np.ndarray | None = None,
    ) -> None:
        self.U = np.array(U, dtype=np.float64, copy=True)
        self.acc = _copy_or(acc, np.zeros_like(self.U))
        self.Ustar = _copy_or(Ustar, self.U.copy())
        self.acc2 = _copy_or(acc2, np.zeros_like(self.U))
        self.lock = threading.Lock()

    def copy(self) -> "LTSState":
        """Deep copy with fresh arrays and a fresh lock — what rollback
        restores, so a worker thread abandoned by the watchdog can
        neither scribble on the restored arrays nor hold its lock."""
        return LTSState(self.U, self.acc, self.Ustar, self.acc2)

    def conserved_total(self, mesh: Mesh) -> np.ndarray:
        """``Σ_c U_c V_c + Σ_c acc_c`` — exactly conserved in the
        absence of boundary fluxes (forward-Euler scheme; the Heun
        scheme conserves ``Σ U·V + ½ Σ (acc + acc2)``)."""
        return (self.U * mesh.cell_volumes[:, None]).sum(axis=0) + (
            self.acc
        ).sum(axis=0)


def _copy_or(a: np.ndarray | None, default: np.ndarray) -> np.ndarray:
    return default if a is None else np.array(a, dtype=np.float64, copy=True)


def accumulate_face_fluxes(
    mesh: Mesh,
    state: LTSState,
    faces: np.ndarray,
    dt_face: float,
    *,
    stage: int = 1,
) -> None:
    """FACE-task kernel: evaluate Rusanov fluxes on ``faces`` and
    deposit ``F·A·dt_face`` into the adjacent accumulators.

    ``stage=1`` reads ``state.U`` and deposits into ``state.acc``;
    ``stage=2`` (the Heun corrector sweep) reads the predictor states
    ``state.Ustar`` and deposits into ``state.acc2``.  Boundary faces
    (second cell −1) use transmissive conditions.  The deposits, and
    only they, run under ``state.lock``.
    """
    if len(faces) == 0:
        return
    if stage == 1:
        src, acc = state.U, state.acc
    elif stage == 2:
        src, acc = state.Ustar, state.acc2
    else:
        raise ValueError("stage must be 1 or 2")
    a = mesh.face_cells[faces, 0]
    b = mesh.face_cells[faces, 1]
    nx = mesh.face_normal[faces, 0]
    ny = mesh.face_normal[faces, 1]
    area = mesh.face_area[faces]
    interior = b >= 0
    UL = src[a]
    if np.all(interior):
        F = rusanov_flux(UL, src[b], nx, ny)
    else:
        UR = UL.copy()
        UR[interior] = src[b[interior]]
        F = np.empty_like(UL)
        if interior.any():
            F[interior] = rusanov_flux(
                UL[interior], UR[interior], nx[interior], ny[interior]
            )
        bnd = ~interior
        if bnd.any():
            F[bnd] = physical_flux(UL[bnd], nx[bnd], ny[bnd])
    w = F * (area * dt_face)[:, None]
    with state.lock:
        np.add.at(acc, a, -w)
        if interior.any():
            np.add.at(acc, b[interior], w[interior])


def apply_cell_updates(
    mesh: Mesh, state: LTSState, cells: np.ndarray
) -> None:
    """CELL-task kernel: apply and clear the accumulated flux budget of
    ``cells``."""
    if len(cells) == 0:
        return
    state.U[cells] += state.acc[cells] / mesh.cell_volumes[cells, None]
    state.acc[cells] = 0.0


def predictor_update(mesh: Mesh, state: LTSState, cells: np.ndarray) -> None:
    """Heun predictor: ``U* = U + acc/V`` (stage-1 budget, *not*
    cleared — the corrector reuses it)."""
    if len(cells) == 0:
        return
    state.Ustar[cells] = (
        state.U[cells] + state.acc[cells] / mesh.cell_volumes[cells, None]
    )


def corrector_update(mesh: Mesh, state: LTSState, cells: np.ndarray) -> None:
    """Heun corrector: ``U += ½ (acc + acc2)/V``; both budgets are
    cleared."""
    if len(cells) == 0:
        return
    state.U[cells] += (
        0.5
        * (state.acc[cells] + state.acc2[cells])
        / mesh.cell_volumes[cells, None]
    )
    state.acc[cells] = 0.0
    state.acc2[cells] = 0.0


def lts_iteration(
    mesh: Mesh,
    state: LTSState,
    tau: np.ndarray,
    cell_tau_faces: dict[int, np.ndarray],
    cell_tau_cells: dict[int, np.ndarray],
    dt_min: float,
    *,
    scheme: str = "euler",
) -> None:
    """One full iteration (``2**τ_max`` subiterations) as a direct
    phase loop with the Rusanov flux — the task-free reference
    implementation.

    ``cell_tau_faces[τ]`` / ``cell_tau_cells[τ]`` are the face/cell
    index sets of each level (see
    :func:`repro.temporal.levels.face_levels`).

    ``scheme="euler"`` runs one (face, cell) sweep per phase;
    ``scheme="heun"`` runs the paper's second-order method as four
    sweeps per phase: stage-1 faces, predictor cells, stage-2 faces
    (evaluated at the predictor states), corrector cells.
    """
    if scheme not in ("euler", "heun"):
        raise ValueError(f"unknown scheme {scheme!r}")
    tau_max = int(np.asarray(tau).max())
    empty = np.empty(0, dtype=np.int64)
    for s in range(num_subiterations(tau_max)):
        for t in active_levels(s, tau_max):
            faces = cell_tau_faces.get(t, empty)
            cells = cell_tau_cells.get(t, empty)
            dt_face = (1 << t) * dt_min
            accumulate_face_fluxes(mesh, state, faces, dt_face, stage=1)
            if scheme == "euler":
                apply_cell_updates(mesh, state, cells)
            else:
                predictor_update(mesh, state, cells)
                accumulate_face_fluxes(mesh, state, faces, dt_face, stage=2)
                corrector_update(mesh, state, cells)
