"""The executor check under its older import path.

:mod:`repro.util.forkpool` owns the worker-count rule, the executor
check and the one pool constructor.  ``bench/layers.py`` imports
``resolve_executor`` from here, so the name stays until the benchmark
drops it.
"""

from __future__ import annotations

from ..util.forkpool import resolve_executor

__all__ = ["resolve_executor"]
