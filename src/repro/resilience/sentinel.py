"""Resource pressure sentinel for the serving tier.

A :class:`ResourceSentinel` samples the two signals that take a real
serving box down — machine-wide available memory (which sees the job
children, not only the daemon) and free space on the spool and
artifact volumes — and folds them into one typed
:class:`PressureState`:

* ``OK`` — full service;
* ``SOFT`` — degrade: shrink worker concurrency;
* ``HARD`` — protect: pause claiming, shed the in-memory store tier.

Both signals are low-is-bad: a value **at or below** its threshold
escalates.  Transitions are **hysteretic**: escalation is immediate
(one bad sample is enough — the box is already in trouble), but
de-escalation requires the signal to clear its threshold by
:data:`HYSTERESIS` (10%), so a value oscillating around a threshold
does not flap the service between modes on every sample.

Both probes are injectable, which is how the chaos suite applies
*synthetic* memory/disk pressure deterministically; the defaults read
``/proc/meminfo`` and :func:`shutil.disk_usage`.  Thresholds come from
the ``REPRO_SENTINEL_*`` rows of :data:`repro.util.env.KNOBS`.
"""

from __future__ import annotations

import enum
import shutil
import time
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from ..util.env import read

__all__ = [
    "PressureState",
    "SentinelConfig",
    "PressureSample",
    "ResourceSentinel",
]

#: Relative clearance a signal needs beyond its threshold before the
#: sentinel de-escalates.
HYSTERESIS = 0.1


class PressureState(enum.IntEnum):
    """Typed pressure tier; ordered so ``HARD > SOFT > OK``."""

    OK = 0
    SOFT = 1
    HARD = 2

    def __str__(self) -> str:  # "SOFT", not "PressureState.SOFT"
        return self.name


@dataclass(frozen=True)
class SentinelConfig:
    """Thresholds for each signal (``None`` disables that signal); a
    value **at or below** a threshold escalates."""

    mem_soft_bytes: int | None = None
    mem_hard_bytes: int | None = None
    disk_soft_bytes: int | None = 512 * 2**20
    disk_hard_bytes: int | None = 64 * 2**20

    @classmethod
    def from_env(cls) -> "SentinelConfig":
        """Each threshold read from its ``REPRO_SENTINEL_*`` knob, named
        after the field: ``mem_soft_bytes`` reads
        ``REPRO_SENTINEL_MEM_SOFT``."""
        return cls(
            **{
                f.name: read(
                    "REPRO_SENTINEL_" + f.name.removesuffix("_bytes").upper()
                )
                for f in fields(cls)
            }
        )


@dataclass
class PressureSample:
    """One sentinel reading: the folded state plus the raw signals and
    the human-readable reasons behind any non-``OK`` verdict."""

    state: PressureState
    mem_available_bytes: int | None = None
    disk_free_bytes: dict[str, int] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)
    at: float = 0.0

    def to_dict(self) -> dict:
        return {
            "state": str(self.state),
            "mem_available_bytes": self.mem_available_bytes,
            "disk_free_bytes": dict(self.disk_free_bytes),
            "reasons": list(self.reasons),
            "at": self.at,
        }


# ----------------------------------------------------------------------
# Default probes
# ----------------------------------------------------------------------
def read_mem_available_bytes() -> int | None:
    """Machine-wide ``MemAvailable`` (Linux ``/proc/meminfo``)."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def read_disk_free_bytes(path: str | Path) -> int | None:
    """Free bytes on the volume holding ``path``."""
    p = Path(path)
    while not p.exists():
        parent = p.parent
        if parent == p:
            return None
        p = parent
    try:
        return shutil.disk_usage(p).free
    except OSError:
        return None


# ----------------------------------------------------------------------
class ResourceSentinel:
    """Fold resource probes into a hysteretic pressure state.

    Parameters
    ----------
    config:
        Thresholds; ``None`` reads :meth:`SentinelConfig.from_env`.
    volumes:
        Paths whose volumes are probed for free space (the spool and
        artifact roots; duplicates and ``None`` entries are dropped).
    mem_probe / disk_probe:
        Injectable probes (the chaos suite's synthetic pressure).
        ``disk_probe`` takes a volume path and returns free bytes.
    """

    def __init__(
        self,
        config: SentinelConfig | None = None,
        *,
        volumes: tuple[str | Path | None, ...] = (),
        mem_probe: Callable[[], int | None] = read_mem_available_bytes,
        disk_probe: Callable[[str | Path], int | None] = read_disk_free_bytes,
    ) -> None:
        self.config = config if config is not None else SentinelConfig.from_env()
        seen: dict[str, Path] = {}
        for v in volumes:
            if v is not None:
                seen.setdefault(str(v), Path(v))
        self.volumes = tuple(seen.values())
        self.mem_probe = mem_probe
        self.disk_probe = disk_probe
        self.state = PressureState.OK
        self.last_sample: PressureSample | None = None
        self.transitions: list[tuple[float, str, str]] = []

    # -- classification ------------------------------------------------
    @staticmethod
    def _low_is_bad(
        value: int | None,
        soft: int | None,
        hard: int | None,
        margin: float,
    ) -> PressureState:
        if value is None:
            return PressureState.OK
        # De-escalation margin raises the threshold: the value must
        # clear it by ``margin`` before the signal reads as calmer.
        if hard is not None and value <= hard * (1.0 + margin):
            return PressureState.HARD
        if soft is not None and value <= soft * (1.0 + margin):
            return PressureState.SOFT
        return PressureState.OK

    def _classify(
        self, sample: PressureSample, margin: float
    ) -> tuple[PressureState, list[str]]:
        cfg = self.config
        verdicts: list[tuple[PressureState, str]] = []
        s = self._low_is_bad(
            sample.mem_available_bytes,
            cfg.mem_soft_bytes,
            cfg.mem_hard_bytes,
            margin,
        )
        if s:
            verdicts.append(
                (s, f"mem available {sample.mem_available_bytes} B")
            )
        for vol, free in sample.disk_free_bytes.items():
            s = self._low_is_bad(
                free, cfg.disk_soft_bytes, cfg.disk_hard_bytes, margin
            )
            if s:
                verdicts.append((s, f"disk free {free} B on {vol}"))
        if not verdicts:
            return PressureState.OK, []
        worst = max(v for v, _ in verdicts)
        return worst, [f"{v}: {why}" for v, why in verdicts]

    # -- sampling ------------------------------------------------------
    def sample(self) -> PressureSample:
        """Probe every signal and return the (hysteretic) verdict.

        Escalation applies immediately; de-escalation only once every
        signal clears its threshold by :data:`HYSTERESIS`.
        """
        s = PressureSample(state=PressureState.OK, at=time.time())
        s.mem_available_bytes = self.mem_probe() if self.mem_probe else None
        for vol in self.volumes:
            free = self.disk_probe(vol)
            if free is not None:
                s.disk_free_bytes[str(vol)] = free

        raw, raw_reasons = self._classify(s, margin=0.0)
        if raw >= self.state:
            new, reasons = raw, raw_reasons
        else:
            # Candidate de-escalation: re-classify with the hysteresis
            # margin; the state only falls as far as the sticky verdict.
            sticky, sticky_reasons = self._classify(s, margin=HYSTERESIS)
            new = min(self.state, max(raw, sticky))
            reasons = sticky_reasons if new > raw else raw_reasons
        if new != self.state:
            self.transitions.append((s.at, str(self.state), str(new)))
            warnings.warn(
                f"resource pressure {self.state} -> {new}"
                + (f" ({'; '.join(reasons)})" if reasons else ""),
                RuntimeWarning,
                stacklevel=2,
            )
            self.state = new
        s.state = self.state
        s.reasons = reasons
        self.last_sample = s
        return s
