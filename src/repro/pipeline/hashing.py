"""Deterministic config hashing for the pipeline's artifact keys.

Stage digests must be stable across *processes* and *machines* (the
artifact store is shared by CLI invocations, benches, test runs and
campaign restarts), so they are built from SHA-256 over a canonical
JSON rendering of the stage config — never from Python's randomized
``hash()``.

A stage digest covers, in order:

* the stage name and its ``version`` counter (bump it when a stage's
  semantics change and every downstream artifact must be recomputed);
* the package version (code provenance);
* the canonical config dict, without the fields declared
  ``metadata={"digest": False}`` (run-time knobs such as the
  partitioner's worker count, which cannot change the output);
* the digests of all upstream artifacts (so the key of a downstream
  stage transitively pins the whole prefix of the chain).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping, Sequence

__all__ = ["canonical_json", "stage_digest"]


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


def stage_digest(
    stage_name: str,
    stage_version: int,
    config: Any,
    upstream: Sequence[str] = (),
) -> str:
    """Content address of one stage output (see module docstring)."""
    from .. import __version__

    h = hashlib.sha256()
    h.update(f"{stage_name}:v{stage_version}:{__version__}\n".encode())
    h.update(canonical_json(config).encode())
    for up in upstream:
        h.update(b"\n")
        h.update(up.encode())
    return h.hexdigest()
