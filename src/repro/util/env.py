"""Every ``REPRO_*`` environment variable, declared once and read at use.

:data:`KNOBS` is the one table of the package's environment knobs:
name, domain, default and one-line meaning (README, "Environment",
renders it for operators).  :func:`read` is the one parser: it reads
the variable *when called*, never at import, so a long-lived process
sees a changed value on its next read (the serve daemon hands each
attempt its environment as it stands then, and tests monkeypatch
between calls).

Unset or blank means the default.  A value outside its domain —
unparsable, non-finite, negative where it may not be — warns once per
read with a :class:`RuntimeWarning` naming the knob and falls back to
the default: a typo in the environment must not stop a campaign or a
read-only client.  Explicit arguments and CLI flags are validated by
their callers and raise instead.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["KNOBS", "Knob", "parse_bytes", "read"]

_BYTE_SUFFIXES = {"K": 2**10, "M": 2**20, "G": 2**30, "T": 2**40}


def parse_bytes(value: str | int | None) -> int | None:
    """Parse a byte size like ``"512M"``, ``"2G"``, ``"100000"``.

    Returns ``None`` for ``None``/empty and for sizes <= 0 (no bound);
    raises ``ValueError`` on garbage and on non-finite sizes (``inf``,
    ``nan``, ``1e400``).  Suffixes are binary (K=2**10, M=2**20,
    G=2**30, T=2**40).
    """
    if value is None:
        return None
    if isinstance(value, int):
        return value if value > 0 else None
    text = value.strip()
    if not text:
        return None
    scale = _BYTE_SUFFIXES.get(text[-1].upper(), 1)
    if scale != 1:
        text = text[:-1]
    try:
        n = float(text) * scale
        if not math.isfinite(n):
            raise ValueError
    except ValueError:
        raise ValueError(
            f"unparsable byte budget {value!r} (expected e.g. '512M', "
            "'2G' or a plain byte count)"
        ) from None
    return int(n) if n >= 1 else None


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool]):
    def parse(raw: str) -> Any:
        value = convert(raw)
        if not ok(value):
            raise ValueError(raw)
        return value

    return parse


_BYTES = "byte size"
_INT = "integer"
_COUNT = "positive integer"
_TTL = "positive finite number of seconds"
_DELAY = "non-negative finite number of seconds"
_PATH = "path"

#: Domain label -> parser (raises ``ValueError`` outside the domain).
_DOMAINS: dict[str, Callable[[str], Any]] = {
    _BYTES: parse_bytes,
    _INT: int,
    _COUNT: _checked(int, lambda n: n >= 1),
    _TTL: _checked(float, lambda s: 0 < s < math.inf),
    _DELAY: _checked(float, lambda s: 0 <= s < math.inf),
    _PATH: str,
}


@dataclass(frozen=True)
class Knob:
    """One ``REPRO_*`` variable: its domain (a key of the parser
    table), the value :func:`read` returns when it is unset or
    invalid (``None``: no bound, signal off or memory-only), and what
    it controls."""

    name: str
    domain: str
    default: Any
    meaning: str


#: Every environment knob of the package, keyed by name.
KNOBS: dict[str, Knob] = {
    k.name: k
    for k in (
        Knob("REPRO_ARTIFACTS", _PATH, None,
             "artifact store root; turns on the default store's disk layer"),
        Knob("REPRO_ARTIFACTS_BUDGET", _BYTES, None,
             "artifact store disk budget; LRU entries are evicted past it"),
        Knob("REPRO_STORE_CLAIM_TTL", _TTL, 30.0,
             "heartbeat age past which a compute claim is stale"),
        Knob("REPRO_N_JOBS", _INT, -1,
             "pool workers when none is given or pinned; < 0: one per CPU"),
        Knob("REPRO_SPOOL_MAX_PENDING", _COUNT, None,
             "admission bound on a spool's pending jobs"),
        Knob("REPRO_SPOOL_MAX_BYTES", _BYTES, None,
             "admission bound on a spool's pending job bytes"),
        Knob("REPRO_SERVE_STAGE_DELAY", _DELAY, 0.0,
             "a serve job child's sleep after each plan node (test hook)"),
        Knob("REPRO_SENTINEL_MEM_SOFT", _BYTES, None,
             "SOFT pressure at or below this available memory"),
        Knob("REPRO_SENTINEL_MEM_HARD", _BYTES, None,
             "HARD pressure at or below this available memory"),
        Knob("REPRO_SENTINEL_DISK_SOFT", _BYTES, 512 * 2**20,
             "SOFT pressure at or below this free spool/artifact disk"),
        Knob("REPRO_SENTINEL_DISK_HARD", _BYTES, 64 * 2**20,
             "HARD pressure at or below this free spool/artifact disk"),
    )
}


def read(name: str) -> Any:
    """The current value of knob ``name`` (a :data:`KNOBS` key), parsed
    in its domain; unset, blank or invalid reads as its default, and
    invalid also warns."""
    knob = KNOBS[name]
    raw = os.environ.get(name, "").strip()
    if not raw:
        return knob.default
    try:
        return _DOMAINS[knob.domain](raw)
    except ValueError:
        warnings.warn(
            f"invalid {name} value {raw!r} (expected {knob.domain}); "
            "using the default",
            RuntimeWarning,
            stacklevel=3,
        )
        return knob.default
