"""Mesh persistence (NumPy ``.npz`` round-trip).

Generating the larger replica meshes takes a few seconds, so
experiments cache them on disk.  The format is a flat ``.npz`` archive
of the :class:`~repro.mesh.structures.Mesh` arrays.

:func:`load_mesh` validates the archive up front — required fields,
shapes, dtypes and index ranges — and raises a :class:`ValueError`
naming the file and the offending field, instead of surfacing a
cryptic ``KeyError``/broadcast error deep inside the solver when fed a
truncated or foreign archive.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from .structures import Mesh

__all__ = ["save_mesh", "load_mesh"]

_FIELDS = (
    "cell_centers",
    "cell_volumes",
    "cell_depth",
    "face_cells",
    "face_area",
    "face_normal",
    "face_center",
)

#: Expected shape per field; ``"n"``/``"m"`` are the cell/face counts.
_SHAPES = {
    "cell_centers": ("n", 2),
    "cell_volumes": ("n",),
    "cell_depth": ("n",),
    "face_cells": ("m", 2),
    "face_area": ("m",),
    "face_normal": ("m", 2),
    "face_center": ("m", 2),
}

_INTEGER_FIELDS = ("cell_depth", "face_cells")


def save_mesh(mesh: Mesh, path: str | Path) -> None:
    """Write a mesh to ``path`` as a compressed ``.npz`` archive."""
    np.savez_compressed(
        Path(path), **{f: getattr(mesh, f) for f in _FIELDS}
    )


def load_mesh(path: str | Path) -> Mesh:
    """Read a mesh previously written by :func:`save_mesh`.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    ValueError
        If the archive is not a mesh archive, or any field is missing
        or has an inconsistent shape/dtype (the message names the file
        and the field).
    """
    path = Path(path)
    try:
        # The handle is ours so it is closed even when NumPy rejects a
        # truncated archive (it leaks one it opened from a path).
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            fields = {f: data[f].copy() for f in _FIELDS if f in data}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise ValueError(
            f"{path}: not a mesh archive (unreadable .npz: {exc})"
        ) from exc
    missing = [f for f in _FIELDS if f not in fields]
    if missing:
        raise ValueError(
            f"{path}: not a mesh archive, missing fields {missing}"
        )

    n = len(fields["cell_volumes"])
    m = len(fields["face_area"])
    dims = {"n": n, "m": m}
    for name, spec in _SHAPES.items():
        expected = tuple(dims.get(d, d) for d in spec)
        if fields[name].shape != expected:
            raise ValueError(
                f"{path}: field {name!r} has shape "
                f"{fields[name].shape}, expected {expected} "
                f"(n={n} cells, m={m} faces)"
            )
    for name in _INTEGER_FIELDS:
        if not np.issubdtype(fields[name].dtype, np.integer):
            raise ValueError(
                f"{path}: field {name!r} has dtype "
                f"{fields[name].dtype}, expected an integer type"
            )
    for name in _FIELDS:
        if name in _INTEGER_FIELDS:
            continue
        if not np.issubdtype(fields[name].dtype, np.floating):
            raise ValueError(
                f"{path}: field {name!r} has dtype "
                f"{fields[name].dtype}, expected a floating type"
            )
        if not np.isfinite(fields[name]).all():
            raise ValueError(
                f"{path}: field {name!r} contains non-finite values"
            )
    fc = fields["face_cells"]
    if m and (fc[:, 0].min() < 0 or fc.max() >= n):
        raise ValueError(
            f"{path}: field 'face_cells' references cells outside "
            f"[0, {n}) (boundary faces use -1 in the second column)"
        )
    if m and fc[:, 1].min() < -1:
        raise ValueError(
            f"{path}: field 'face_cells' has second-column entries "
            "below -1"
        )
    return Mesh(**fields)
