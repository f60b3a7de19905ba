"""Finite-volume mesh container.

A :class:`Mesh` is a cell/face ("face-based") representation of an
unstructured finite-volume mesh, the same abstraction FLUSEPA operates
on: physical values live on *cells*, fluxes are evaluated on *faces*,
and every face knows its (up to) two adjacent cells.

All arrays are contiguous NumPy arrays; cell–cell adjacency is derived
lazily in CSR form for graph algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Mesh"]


@dataclass
class Mesh:
    """An unstructured 2D finite-volume mesh.

    Attributes
    ----------
    cell_centers:
        ``(n, 2)`` cell centroid coordinates.
    cell_volumes:
        ``(n,)`` cell volumes (areas in 2D).
    cell_depth:
        ``(n,)`` refinement depth of each cell (quadtree meshes) or
        zeros for externally supplied meshes.
    face_cells:
        ``(m, 2)`` adjacent cell indices per face; ``face_cells[f, 1]
        == -1`` marks a domain-boundary face.
    face_area:
        ``(m,)`` face areas (edge lengths in 2D).
    face_normal:
        ``(m, 2)`` unit normals oriented from ``face_cells[f, 0]``
        toward ``face_cells[f, 1]`` (outward for boundary faces).
    face_center:
        ``(m, 2)`` face midpoint coordinates.
    """

    cell_centers: np.ndarray
    cell_volumes: np.ndarray
    cell_depth: np.ndarray
    face_cells: np.ndarray
    face_area: np.ndarray
    face_normal: np.ndarray
    face_center: np.ndarray
    _adjacency: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return len(self.cell_volumes)

    @property
    def num_faces(self) -> int:
        """Number of faces (interior + boundary)."""
        return len(self.face_area)

    def interior_faces(self) -> np.ndarray:
        """Indices of faces with two adjacent cells."""
        return np.flatnonzero(self.face_cells[:, 1] >= 0)

    def boundary_faces(self) -> np.ndarray:
        """Indices of domain-boundary faces."""
        return np.flatnonzero(self.face_cells[:, 1] < 0)

    # ------------------------------------------------------------------
    def cell_adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell–cell CSR adjacency ``(xadj, adjncy, face_of)``.

        ``face_of`` gives, for every adjacency entry, the index of the
        mesh face realizing it — useful for mapping cut edges back to
        communication faces.  Cached after the first call.  It is the
        reference the streamed dual graph
        (:func:`~repro.mesh.dual.mesh_to_dual_graph`) is tested against.
        """
        if self._adjacency is not None:
            return self._adjacency
        interior = self.interior_faces()
        a = self.face_cells[interior, 0]
        b = self.face_cells[interior, 1]
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        fidx = np.concatenate([interior, interior])
        order = np.argsort(src, kind="stable")
        src, dst, fidx = src[order], dst[order], fidx[order]
        xadj = np.zeros(self.num_cells + 1, dtype=np.int64)
        np.add.at(xadj[1:], src, 1)
        np.cumsum(xadj, out=xadj)
        self._adjacency = (xadj, dst, fidx)
        return self._adjacency

    def validate(self) -> None:
        """Raise :class:`ValueError` on structural inconsistencies."""
        n, m = self.num_cells, self.num_faces
        if self.cell_centers.shape != (n, 2):
            raise ValueError("cell_centers shape mismatch")
        if self.cell_depth.shape != (n,):
            raise ValueError("cell_depth shape mismatch")
        if np.any(self.cell_volumes <= 0):
            raise ValueError("non-positive cell volume")
        if self.face_cells.shape != (m, 2):
            raise ValueError("face_cells shape mismatch")
        if self.face_area.shape != (m,) or np.any(self.face_area <= 0):
            raise ValueError("invalid face areas")
        if self.face_normal.shape != (m, 2):
            raise ValueError("face_normal shape mismatch")
        norms = np.linalg.norm(self.face_normal, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("face normals must be unit vectors")
        if np.any(self.face_cells[:, 0] < 0) or np.any(
            self.face_cells[:, 0] >= n
        ):
            raise ValueError("face_cells[:,0] out of range")
        if np.any(self.face_cells[:, 1] >= n):
            raise ValueError("face_cells[:,1] out of range")
        a = self.face_cells[:, 0]
        b = self.face_cells[:, 1]
        if np.any(a == b):
            raise ValueError("degenerate face (same cell twice)")
        # Geometric closure: for each cell, sum of area-weighted
        # outward normals must vanish (divergence of a constant field).
        acc = np.zeros((n, 2))
        w = self.face_area[:, None] * self.face_normal
        np.add.at(acc, a, w)
        interior = self.interior_faces()
        np.add.at(acc, b[interior], -w[interior])
        scale = np.sqrt(self.cell_volumes)[:, None]
        if not np.allclose(acc / scale, 0.0, atol=1e-6):
            raise ValueError("cells are not geometrically closed")

    def summary(self) -> dict:
        """Human-readable structural summary."""
        return {
            "num_cells": self.num_cells,
            "num_faces": self.num_faces,
            "num_boundary_faces": int(len(self.boundary_faces())),
            "min_volume": float(self.cell_volumes.min()),
            "max_volume": float(self.cell_volumes.max()),
            "depth_range": (
                int(self.cell_depth.min()),
                int(self.cell_depth.max()),
            ),
        }
