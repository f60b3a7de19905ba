"""Whether Numba is importable — a stub kept for the benchmark only.

The compiled kernel tier that lived here was deleted unmeasured (no
committed number was ever taken with Numba importable; ROADMAP).
Nothing in ``src/`` branches on :func:`is_available`;
``bench/run.py::machine_info`` imports it to report
``machine.compiled``, and ``bench/`` could not change in the PR that
removed the tier.  The benchmark-kind PR that retires that metric
deletes this module with it.
"""

from __future__ import annotations

from functools import cache

__all__ = ["is_available"]


@cache
def is_available() -> bool:
    """True when Numba can be imported."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True
