"""Crash-safe JSON file I/O shared by the spool/daemon layers.

One writer idiom, used everywhere a JSON record crosses a process
boundary through the filesystem: write to a pid-suffixed ``*.tmp<pid>``
sibling, then ``os.replace`` into place.  A process killed between the
two calls leaves only attributable tmp litter (reclaimed by ``repro gc
--spool``), never a half-written record; readers observe either the
old file or the new one, atomically.

The reader side is equally deliberate: a missing, unreadable, corrupt
(undecodable bytes included) or non-object JSON file reads as ``None``
— torn concurrent state is a normal observation in the spool protocol,
not an error.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = ["atomic_write_json", "read_json"]


def atomic_write_json(
    path: Path | str,
    payload: dict[str, Any],
    *,
    indent: int | None = None,
    sort_keys: bool = False,
) -> None:
    """Atomically publish ``payload`` as JSON at ``path``.

    ``indent``/``sort_keys`` pass through to :func:`json.dumps` so
    callers keep their established on-disk byte format (the spool's
    human-auditable status records are indented and key-sorted, the
    daemon's high-frequency heartbeat files compact).
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(
        json.dumps(payload, indent=indent, sort_keys=sort_keys),
        encoding="utf-8",
    )
    os.replace(tmp, path)


def read_json(path: Path | str) -> dict[str, Any] | None:
    """Read a JSON object from ``path``; ``None`` when missing,
    unreadable, corrupt, or not a JSON object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):  # JSON or UTF-8 decoding errors
        return None
    return data if isinstance(data, dict) else None
