"""Deterministic fault injection for the threaded runtime.

A :class:`FaultPlan` wraps any executor ``task_fn`` and injects, at
configurable per-task rates, the three hazards a FLUSEPA-class
campaign actually meets:

* **transient failures** — a :class:`TransientError` raised *before*
  the task body runs (so a retry re-executes the body exactly once and
  the physics stays bit-compatible with a fault-free run);
* **stragglers** — a sleep before the body, stressing the watchdog and
  the schedule without touching the numerics;
* **silent NaN poisoning** — a NaN written into a state array *after*
  the body, invisible to the executor and caught only by the physics
  guards.

Every decision is a pure function of ``(seed, iteration, round, task,
attempt)``, so a plan replays identically: the same campaign with the
same plan sees the same faults, and a rollback re-run (``round > 0``)
or an executor retry (``attempt > 0``) is deterministically clean when
``first_attempt_only`` / ``first_round_only`` are set (the default —
that is what makes the faults *transient*).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import TransientError

__all__ = ["FaultSpec", "FaultPlan", "FaultKinds"]

#: Recognised fault kinds.
FaultKinds = ("transient", "straggler", "poison")


@dataclass(frozen=True)
class FaultSpec:
    """One fault source.

    Parameters
    ----------
    kind:
        ``"transient"`` (raise :class:`TransientError` before the task
        body), ``"straggler"`` (sleep ``delay`` seconds before the
        body) or ``"poison"`` (write a NaN into a target state array
        after the body).
    rate:
        Per-task injection probability in ``[0, 1]``.
    delay:
        Straggler sleep in seconds.
    first_attempt_only:
        Inject only on a task's first attempt within an execution, so
        an executor retry of the same task succeeds.
    first_round_only:
        Inject only in rollback round 0 of an iteration, so a campaign
        rollback re-run is clean.
    """

    kind: str
    rate: float
    delay: float = 0.005
    first_attempt_only: bool = True
    first_round_only: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FaultKinds:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FaultKinds}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


@dataclass
class FaultPlan:
    """A seeded, replayable set of fault sources.

    Use :meth:`wrap` to produce a faulty ``task_fn`` for the executor
    and :meth:`set_context` to advance the ``(iteration, round)``
    context between (re-)runs.  :attr:`injected` counts what was
    actually injected, for the chaos reports.
    """

    specs: Sequence[FaultSpec] = ()
    seed: int = 0
    injected: Counter = field(default_factory=Counter)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        self._iteration = 0
        self._round = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def set_context(self, iteration: int, round_: int = 0) -> None:
        """Advance the decision context.

        ``iteration`` is the campaign iteration, ``round_`` the rollback
        re-run count of that iteration (0 = first try).
        """
        self._iteration = int(iteration)
        self._round = int(round_)

    @property
    def enabled(self) -> bool:
        """Whether any spec has a nonzero rate."""
        return any(s.rate > 0 for s in self.specs)

    def decide(self, task: int, attempt: int) -> list[FaultSpec]:
        """Faults to inject into ``task`` at ``attempt`` — deterministic
        in ``(seed, iteration, round, task, attempt)``."""
        hits: list[FaultSpec] = []
        rng = None
        for k, spec in enumerate(self.specs):
            if spec.rate <= 0:
                continue
            if spec.first_attempt_only and attempt > 0:
                continue
            if spec.first_round_only and self._round > 0:
                continue
            if rng is None:
                rng = np.random.default_rng(
                    (self.seed, self._iteration, self._round, task, attempt)
                )
            # one draw per spec, in declaration order, so adding a spec
            # does not reshuffle the earlier ones' decisions
            if rng.random() < spec.rate:
                hits.append(spec)
        return hits

    # ------------------------------------------------------------------
    def wrap(
        self,
        task_fn: Callable[[int], None],
        *,
        poison_targets: Sequence[np.ndarray] = (),
    ) -> Callable[[int], None]:
        """Wrap ``task_fn`` with this plan's fault sources.

        ``poison_targets`` are the state arrays eligible for NaN
        poisoning (e.g. ``(state.acc,)``).  The wrapper counts attempts
        per task itself, so it needs no cooperation from the executor.
        """
        attempts: Counter = Counter()
        lock = self._lock
        targets = tuple(poison_targets)

        def faulty(t: int) -> None:
            with lock:
                attempt = attempts[t]
                attempts[t] += 1
            hits = self.decide(t, attempt)
            post: list[FaultSpec] = []
            for spec in hits:
                if spec.kind == "straggler":
                    with lock:
                        self.injected["straggler"] += 1
                    time.sleep(spec.delay)
                elif spec.kind == "transient":
                    # Raised *before* the body: a retried task has not
                    # deposited anything yet, so re-running it is safe.
                    with lock:
                        self.injected["transient"] += 1
                    raise TransientError(
                        f"injected transient failure in task {t} "
                        f"(iteration {self._iteration}, attempt {attempt})"
                    )
                else:
                    post.append(spec)
            task_fn(t)
            for spec in post:
                self._poison(t, attempt, targets)

        return faulty

    def _poison(
        self, task: int, attempt: int, targets: Sequence[np.ndarray]
    ) -> None:
        """Silently NaN one entry of a target array (deterministic)."""
        if not targets:
            return
        rng = np.random.default_rng(
            (self.seed, self._iteration, self._round, task, attempt, 0xBAD)
        )
        arr = targets[int(rng.integers(len(targets)))]
        if arr.size == 0:
            return
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        arr[idx] = np.nan
        with self._lock:
            self.injected["poison"] += 1
