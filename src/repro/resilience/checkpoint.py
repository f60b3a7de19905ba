"""Atomic campaign checkpoints (``.npz`` arrays + JSON manifest).

A checkpoint captures everything needed to continue a campaign from
iteration *k* as if it had never stopped: the conserved state and flux
accumulators, the temporal levels, the domain assignment (a resumed
campaign must *not* re-partition — the levels have evolved since the
partition was computed), the base time step and hysteresis anchor, and
the driver configuration.  Unknown manifest keys are ignored, so a
manifest carrying the RNG state that older writers stored still
loads.

Writes are crash-safe: both files go to ``*.tmp`` first and are
``os.replace``-d into place, arrays before manifest — a manifest is
only ever visible once its arrays are complete, so
:func:`find_latest_checkpoint` can trust any manifest it sees and a
kill mid-write costs at most one checkpoint interval of work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import CheckpointError

__all__ = [
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "find_latest_checkpoint",
]

CHECKPOINT_VERSION = 1

_PREFIX = "ckpt_"

#: Arrays stored in the ``.npz`` member, with expected ndim.
_ARRAYS = {
    "U": 2,
    "acc": 2,
    "Ustar": 2,
    "acc2": 2,
    "tau": 1,
    "domain": 1,
    "domain_process": 1,
}

_MANIFEST_KEYS = (
    "version",
    "iteration",
    "dt_min",
    "dt_ref",
    "num_cells",
    "num_domains",
    "num_processes",
    "arrays",
)


@dataclass
class Checkpoint:
    """An in-memory checkpoint (see :func:`save_checkpoint`)."""

    iteration: int
    U: np.ndarray
    acc: np.ndarray
    Ustar: np.ndarray
    acc2: np.ndarray
    tau: np.ndarray
    domain: np.ndarray
    domain_process: np.ndarray
    dt_min: float
    dt_ref: float
    num_processes: int
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def num_domains(self) -> int:
        return len(self.domain_process)


def _base_path(directory: str | Path, iteration: int) -> Path:
    return Path(directory) / f"{_PREFIX}{iteration:08d}"


def save_checkpoint(
    directory: str | Path,
    ckpt: Checkpoint,
) -> Path:
    """Atomically write ``ckpt`` under ``directory``.

    Returns the manifest path (``ckpt_<iteration>.json``); the arrays
    live next to it in ``ckpt_<iteration>.npz``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    base = _base_path(directory, ckpt.iteration)
    npz_path = base.with_suffix(".npz")
    json_path = base.with_suffix(".json")

    arrays = {name: getattr(ckpt, name) for name in _ARRAYS}
    manifest = {
        "version": CHECKPOINT_VERSION,
        "iteration": int(ckpt.iteration),
        "dt_min": float(ckpt.dt_min),
        "dt_ref": float(ckpt.dt_ref),
        "num_cells": int(len(ckpt.U)),
        "num_domains": int(ckpt.num_domains),
        "num_processes": int(ckpt.num_processes),
        "arrays": npz_path.name,
        "meta": ckpt.meta,
    }

    tmp_npz = npz_path.with_name(npz_path.name + ".tmp")
    tmp_json = json_path.with_name(json_path.name + ".tmp")
    try:
        # np.savez appends ".npz" unless the name already ends with it;
        # write to an open file object to keep the exact tmp name.
        with open(tmp_npz, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp_npz, npz_path)
        with open(tmp_json, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_json, json_path)
    except OSError as exc:
        for tmp in (tmp_npz, tmp_json):
            try:
                tmp.unlink()
            except OSError:
                pass
        raise CheckpointError(
            f"failed to write checkpoint {base}: {exc}"
        ) from exc
    return json_path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load and validate a checkpoint.

    ``path`` may be the manifest (``.json``), the arrays (``.npz``) or
    the common basename.  Raises :class:`CheckpointError` naming the
    file and the problem on anything truncated, foreign or
    inconsistent.
    """
    path = Path(path)
    if path.suffix == ".npz":
        path = path.with_suffix(".json")
    elif path.suffix != ".json":
        path = path.with_suffix(".json")
    if not path.exists():
        raise CheckpointError(f"no checkpoint manifest at {path}")

    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"corrupt checkpoint manifest {path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"corrupt checkpoint manifest {path}: not a JSON object")
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise CheckpointError(
            f"corrupt checkpoint manifest {path}: missing keys {missing}"
        )
    if manifest["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {manifest['version']}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )

    npz_path = path.with_name(str(manifest["arrays"]))
    try:
        # A handle we own is closed even when NumPy rejects a
        # truncated archive (it leaks one it opened from a path).
        with open(npz_path, "rb") as fh, np.load(
            fh, allow_pickle=False
        ) as data:
            missing = [k for k in _ARRAYS if k not in data]
            if missing:
                raise CheckpointError(
                    f"checkpoint arrays {npz_path}: missing {missing}"
                )
            arrays = {k: data[k].copy() for k in _ARRAYS}
    except CheckpointError:
        raise
    except Exception as exc:  # BadZipFile, OSError, ValueError, ...
        raise CheckpointError(
            f"unreadable checkpoint arrays {npz_path}: {exc}"
        ) from exc

    for name, ndim in _ARRAYS.items():
        if arrays[name].ndim != ndim:
            raise CheckpointError(
                f"checkpoint {npz_path}: array {name!r} has "
                f"{arrays[name].ndim} dimensions, expected {ndim}"
            )
    n = int(manifest["num_cells"])
    for name in ("U", "acc", "Ustar", "acc2"):
        if arrays[name].shape != (n, 4):
            raise CheckpointError(
                f"checkpoint {npz_path}: array {name!r} has shape "
                f"{arrays[name].shape}, expected ({n}, 4)"
            )
    if arrays["tau"].shape != (n,):
        raise CheckpointError(
            f"checkpoint {npz_path}: array 'tau' has shape "
            f"{arrays['tau'].shape}, expected ({n},)"
        )
    if arrays["domain"].shape != (n,):
        raise CheckpointError(
            f"checkpoint {npz_path}: array 'domain' has shape "
            f"{arrays['domain'].shape}, expected ({n},)"
        )
    if len(arrays["domain_process"]) != int(manifest["num_domains"]):
        raise CheckpointError(
            f"checkpoint {npz_path}: {len(arrays['domain_process'])} "
            f"domain_process entries for {manifest['num_domains']} domains"
        )

    return Checkpoint(
        iteration=int(manifest["iteration"]),
        dt_min=float(manifest["dt_min"]),
        dt_ref=float(manifest["dt_ref"]),
        num_processes=int(manifest["num_processes"]),
        meta=dict(manifest.get("meta") or {}),
        **arrays,
    )


def find_latest_checkpoint(
    directory: str | Path, *, validate: bool = False
) -> Path | None:
    """Manifest path of the highest-iteration checkpoint in
    ``directory`` (``None`` if there is none).

    With ``validate=True``, candidates are test-loaded in descending
    iteration order; a corrupt or truncated checkpoint (e.g. a
    mid-write kill, a disk error) is skipped with a
    :class:`RuntimeWarning` and the previous valid one is returned —
    so ``--resume`` degrades to the last good state instead of
    crashing.
    """
    import warnings

    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: list[tuple[int, Path]] = []
    for p in directory.glob(f"{_PREFIX}*.json"):
        stem = p.stem[len(_PREFIX):]
        if not stem.isdigit():
            continue
        candidates.append((int(stem), p))
    candidates.sort(reverse=True)
    if not validate:
        return candidates[0][1] if candidates else None
    for _, p in candidates:
        try:
            load_checkpoint(p)
        except CheckpointError as exc:
            warnings.warn(
                f"skipping corrupt checkpoint {p}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        return p
    return None
