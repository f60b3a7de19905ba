"""Tests for the 3D octree mesh generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.octree import build_octree_mesh, octree_cylinder_mesh


def uniform_octree(depth):
    h = 1.0 / (1 << depth)
    return build_octree_mesh(
        lambda x, y, z: h, max_depth=depth, min_depth=depth
    )


class TestUniformOctree:
    def test_cell_count(self):
        mesh, c3 = uniform_octree(2)
        assert mesh.num_cells == 64
        assert c3.shape == (64, 3)

    def test_total_volume(self):
        mesh, _ = uniform_octree(2)
        assert mesh.cell_volumes.sum() == pytest.approx(1.0)

    def test_face_counts(self):
        # d³ grid: 3·d²·(d−1) interior faces, 6·d² boundary faces.
        mesh, _ = uniform_octree(2)
        d = 4
        assert len(mesh.interior_faces()) == 3 * d * d * (d - 1)
        assert len(mesh.boundary_faces()) == 6 * d * d

    def test_depth_past_packed_key_limit_raises(self):
        with pytest.raises(ValueError, match="max_depth <= 16"):
            build_octree_mesh(lambda x, y, z: 1.0, max_depth=17)

    def test_interior_degree(self):
        """A fully interior cell has exactly 6 neighbours."""
        mesh, c3 = uniform_octree(3)
        xadj, _, _ = mesh.cell_adjacency()
        deg = np.diff(xadj)
        interior = np.all((c3 > 0.2) & (c3 < 0.8), axis=1)
        assert np.all(deg[interior] == 6)

    def test_single_cell(self):
        mesh, _ = uniform_octree(0)
        assert mesh.num_cells == 1
        assert len(mesh.boundary_faces()) == 6


class TestGradedOctree:
    @pytest.fixture(scope="class")
    def graded(self):
        h = 1.0 / 16

        def sizing(x, y, z):
            d = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)
            return h if d < 0.3 else 4 * h

        return build_octree_mesh(sizing, max_depth=4, min_depth=2)

    def test_two_to_one_balance(self, graded):
        mesh, _ = graded
        interior = mesh.interior_faces()
        a = mesh.face_cells[interior, 0]
        b = mesh.face_cells[interior, 1]
        assert np.abs(mesh.cell_depth[a] - mesh.cell_depth[b]).max() <= 1

    def test_volume_conserved(self, graded):
        mesh, _ = graded
        assert mesh.cell_volumes.sum() == pytest.approx(1.0)

    def test_face_area_conservation(self, graded):
        """Total face area between depth classes: each coarse-fine
        interface contributes four quarter-faces summing to the coarse
        face area."""
        mesh, _ = graded
        interior = mesh.interior_faces()
        a = mesh.face_cells[interior, 0]
        b = mesh.face_cells[interior, 1]
        mixed = mesh.cell_depth[a] != mesh.cell_depth[b]
        # Every mixed face has the area of the finer cell's side.
        finer = np.maximum(mesh.cell_depth[a], mesh.cell_depth[b])
        expected = (1.0 / (1 << finer.astype(np.int64))) ** 2
        np.testing.assert_allclose(mesh.face_area[interior], expected)
        assert mixed.sum() > 0  # the case is actually graded

    def test_no_duplicate_faces(self, graded):
        mesh, _ = graded
        interior = mesh.interior_faces()
        pairs = np.sort(mesh.face_cells[interior], axis=1)
        keys = pairs[:, 0] * mesh.num_cells + pairs[:, 1]
        assert len(np.unique(keys)) == len(keys)

    def test_adjacency_symmetric(self, graded):
        mesh, _ = graded
        xadj, adjncy, _ = mesh.cell_adjacency()
        src = np.repeat(np.arange(mesh.num_cells), np.diff(xadj))
        fwd = set(zip(src.tolist(), adjncy.tolist()))
        assert all((b, a) in fwd for a, b in fwd)

    def test_boundary_area_totals_cube_surface(self, graded):
        mesh, _ = graded
        assert mesh.face_area[mesh.boundary_faces()].sum() == pytest.approx(
            6.0
        )


class TestOctreeCylinder:
    def test_coarse_majority(self):
        from repro.mesh import level_statistics
        from repro.temporal import levels_from_depth

        mesh, _ = octree_cylinder_mesh()
        tau = levels_from_depth(mesh, num_levels=4)
        st = level_statistics(mesh, tau)
        assert st.cell_fraction[-1] > 0.5
        assert st.cell_fraction[0] < 0.2

    def test_pipeline_compatible(self):
        """The 3D mesh flows through partitioning and task generation
        unchanged."""
        from repro.partitioning import make_decomposition
        from repro.taskgraph import generate_task_graph
        from repro.temporal import levels_from_depth

        mesh, _ = octree_cylinder_mesh(max_depth=6)
        tau = levels_from_depth(mesh, num_levels=4)
        dec = make_decomposition(mesh, tau, 4, 2, strategy="MC_TL", seed=0)
        dag = generate_task_graph(mesh, tau, dec)
        dag.validate()
        assert dag.num_tasks > 0


class TestOctreeProperties:
    @given(st.floats(0.1, 0.4), st.integers(min_value=2, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_random_graded_octrees_consistent(self, radius, depth):
        h = 1.0 / (1 << depth)

        def sizing(x, y, z):
            d = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2)
            return h if d < radius else 8 * h

        mesh, c3 = build_octree_mesh(sizing, max_depth=depth, min_depth=1)
        assert mesh.cell_volumes.sum() == pytest.approx(1.0)
        interior = mesh.interior_faces()
        a = mesh.face_cells[interior, 0]
        b = mesh.face_cells[interior, 1]
        if len(interior):
            assert (
                np.abs(mesh.cell_depth[a] - mesh.cell_depth[b]).max() <= 1
            )
        assert mesh.face_area[mesh.boundary_faces()].sum() == pytest.approx(6.0)
