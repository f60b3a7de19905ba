"""Tests for quadtree mesh generation and the Mesh structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import build_quadtree_mesh, uniform_mesh


class TestUniformMesh:
    def test_cell_count(self):
        m = uniform_mesh(depth=3)
        assert m.num_cells == 64

    def test_total_volume_is_domain_area(self):
        m = uniform_mesh(depth=3)
        assert m.cell_volumes.sum() == pytest.approx(1.0)

    def test_face_count(self):
        # d×d grid: 2·d·(d−1) interior + 4·d boundary faces.
        m = uniform_mesh(depth=3)
        d = 8
        assert len(m.interior_faces()) == 2 * d * (d - 1)
        assert len(m.boundary_faces()) == 4 * d

    def test_validates(self):
        uniform_mesh(depth=3).validate()

    def test_depth_past_packed_key_limit_raises(self):
        with pytest.raises(ValueError, match="max_depth <= 24"):
            uniform_mesh(depth=25)

    def test_single_cell(self):
        m = uniform_mesh(depth=0)
        assert m.num_cells == 1
        assert len(m.boundary_faces()) == 4
        m.validate()


def graded_mesh(max_depth=5):
    def sizing(x, y):
        h = 1.0 / (1 << max_depth)
        d = np.hypot(x - 0.5, y - 0.5)
        return np.where(d < 0.15, h, np.where(d < 0.35, 2 * h, 4 * h))

    return build_quadtree_mesh(sizing, max_depth=max_depth, min_depth=2)


class TestGradedMesh:
    def test_validates(self):
        graded_mesh().validate()

    def test_total_volume(self):
        m = graded_mesh()
        assert m.cell_volumes.sum() == pytest.approx(1.0)

    def test_two_to_one_balance(self):
        """Adjacent cells differ by at most one refinement level."""
        m = graded_mesh()
        interior = m.interior_faces()
        a = m.face_cells[interior, 0]
        b = m.face_cells[interior, 1]
        assert np.abs(m.cell_depth[a] - m.cell_depth[b]).max() <= 1

    def test_multiple_depths_present(self):
        m = graded_mesh()
        assert len(np.unique(m.cell_depth)) >= 3

    def test_face_area_matches_smaller_cell(self):
        """Every face's area equals the side length of its finer cell."""
        m = graded_mesh()
        interior = m.interior_faces()
        a = m.face_cells[interior, 0]
        b = m.face_cells[interior, 1]
        finer = np.maximum(m.cell_depth[a], m.cell_depth[b])
        np.testing.assert_allclose(
            m.face_area[interior], 1.0 / (1 << finer.astype(np.int64))
        )

    def test_no_duplicate_faces(self):
        m = graded_mesh()
        interior = m.interior_faces()
        pairs = np.sort(m.face_cells[interior], axis=1)
        keys = pairs[:, 0] * m.num_cells + pairs[:, 1]
        # A cell pair can share at most one face in a quadtree.
        assert len(np.unique(keys)) == len(keys)

    def test_boundary_faces_on_boundary(self):
        m = graded_mesh()
        bnd = m.boundary_faces()
        fc = m.face_center[bnd]
        on_edge = (
            np.isclose(fc[:, 0], 0)
            | np.isclose(fc[:, 0], 1)
            | np.isclose(fc[:, 1], 0)
            | np.isclose(fc[:, 1], 1)
        )
        assert np.all(on_edge)

    def test_adjacency_symmetric(self):
        m = graded_mesh()
        xadj, adjncy, _ = m.cell_adjacency()
        src = np.repeat(np.arange(m.num_cells), np.diff(xadj))
        fwd = set(zip(src.tolist(), adjncy.tolist()))
        assert all((b, a) in fwd for a, b in fwd)

    def test_adjacency_cached(self):
        m = graded_mesh()
        assert m.cell_adjacency() is m.cell_adjacency()

    def test_sizing_respected(self):
        """Cells in the fine region must be at max depth."""
        m = graded_mesh()
        r = np.hypot(
            m.cell_centers[:, 0] - 0.5, m.cell_centers[:, 1] - 0.5
        )
        inner = r < 0.12  # safely inside the fine disk
        assert np.all(m.cell_depth[inner] == 5)

    def test_morton_order_locality(self):
        """Consecutive cells should be spatially close on average."""
        m = graded_mesh()
        d = np.linalg.norm(np.diff(m.cell_centers, axis=0), axis=1)
        assert np.median(d) < 0.1


class TestMeshValidation:
    def test_detects_bad_normal(self):
        m = uniform_mesh(depth=2)
        m.face_normal[0] = [2.0, 0.0]
        with pytest.raises(ValueError, match="unit"):
            m.validate()

    def test_detects_negative_volume(self):
        m = uniform_mesh(depth=2)
        m.cell_volumes[0] = -1.0
        with pytest.raises(ValueError, match="volume"):
            m.validate()

    def test_detects_broken_closure(self):
        m = uniform_mesh(depth=2)
        m.face_area[0] *= 2.0
        with pytest.raises(ValueError):
            m.validate()

    def test_summary_keys(self):
        s = uniform_mesh(depth=2).summary()
        assert s["num_cells"] == 16
        assert s["depth_range"] == (2, 2)


class TestQuadtreeProperties:
    @given(st.integers(min_value=2, max_value=5), st.floats(0.05, 0.45))
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_radius_meshes_valid(self, depth, radius):
        def sizing(x, y):
            h = 1.0 / (1 << depth)
            d = np.hypot(x - 0.5, y - 0.5)
            return np.where(d < radius, h, 4 * h)

        m = build_quadtree_mesh(sizing, max_depth=depth, min_depth=1)
        m.validate()
        assert m.cell_volumes.sum() == pytest.approx(1.0)
        interior = m.interior_faces()
        a = m.face_cells[interior, 0]
        b = m.face_cells[interior, 1]
        assert np.abs(m.cell_depth[a] - m.cell_depth[b]).max(initial=0) <= 1
