"""Canonical JSON: one rendering per value, the same in every process.

The pipeline's stage digests and the spool's job ids both hash this
rendering (:func:`repro.pipeline.hashing.stage_digest`,
:class:`repro.service.queue.JobRequest`), so it lives here, where the
serve control plane can reach it without importing the pipeline.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping

__all__ = ["canonical_json"]


def _canonical(value: Any) -> Any:
    """Reduce a config value to JSON-stable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("digest", True)
        }
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        # repr() round-trips doubles exactly and is stable across
        # platforms; json would also do, but be explicit.
        return float(value)
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(
        f"config value {value!r} of type {type(value).__name__} is not "
        "hashable into an artifact key"
    )


def canonical_json(value: Any) -> str:
    """Canonical JSON rendering (sorted keys, no whitespace drift)."""
    return json.dumps(
        _canonical(value), sort_keys=True, separators=(",", ":")
    )
