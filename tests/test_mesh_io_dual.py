"""Tests for mesh persistence and the mesh→dual-graph conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import validate_csr
from repro.mesh import load_mesh, mesh_to_dual_graph, save_mesh, uniform_mesh
from tests.golden.regen import dual_graph
from tests.oracles.invariants import validate_mesh


class TestIO:
    def test_roundtrip(self, tmp_path, small_mesh):
        path = tmp_path / "m.npz"
        save_mesh(small_mesh, path)
        loaded = load_mesh(path)
        np.testing.assert_array_equal(
            loaded.cell_centers, small_mesh.cell_centers
        )
        np.testing.assert_array_equal(
            loaded.face_cells, small_mesh.face_cells
        )
        validate_mesh(loaded)

    def test_rejects_non_mesh_archive(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError, match="missing"):
            load_mesh(path)

    def test_missing_file_passes_through(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mesh(tmp_path / "nope.npz")

    def test_unreadable_archive_names_file(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(ValueError, match="corrupt.npz"):
            load_mesh(path)

    def test_truncated_archive(self, tmp_path, small_mesh):
        path = tmp_path / "trunc.npz"
        save_mesh(small_mesh, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match="trunc.npz"):
            load_mesh(path)

    def _fields(self, mesh):
        return {
            f: getattr(mesh, f).copy()
            for f in (
                "cell_centers", "cell_volumes", "cell_depth",
                "face_cells", "face_area", "face_normal", "face_center",
            )
        }

    def test_shape_mismatch_names_field(self, tmp_path, small_mesh):
        fields = self._fields(small_mesh)
        fields["cell_centers"] = fields["cell_centers"][:-1]
        path = tmp_path / "shape.npz"
        np.savez(path, **fields)
        with pytest.raises(ValueError, match="'cell_centers' has shape"):
            load_mesh(path)

    def test_wrong_dtype_names_field(self, tmp_path, small_mesh):
        fields = self._fields(small_mesh)
        fields["cell_depth"] = fields["cell_depth"].astype(np.float64)
        path = tmp_path / "dtype.npz"
        np.savez(path, **fields)
        with pytest.raises(ValueError, match="'cell_depth' has dtype"):
            load_mesh(path)

    def test_nonfinite_values_rejected(self, tmp_path, small_mesh):
        fields = self._fields(small_mesh)
        fields["cell_volumes"][0] = np.nan
        path = tmp_path / "nan.npz"
        np.savez(path, **fields)
        with pytest.raises(ValueError, match="non-finite"):
            load_mesh(path)

    def test_out_of_range_face_cells_rejected(self, tmp_path, small_mesh):
        fields = self._fields(small_mesh)
        fields["face_cells"][0, 0] = small_mesh.num_cells + 5
        path = tmp_path / "range.npz"
        np.savez(path, **fields)
        with pytest.raises(ValueError, match="face_cells"):
            load_mesh(path)


class TestDualGraph:
    def test_structure(self, small_mesh):
        g = mesh_to_dual_graph(small_mesh)
        validate_csr(g)
        assert g.num_vertices == small_mesh.num_cells
        assert g.num_edges == len(small_mesh.interior_faces())

    def test_uniform_grid_degrees(self):
        m = uniform_mesh(depth=2)  # 4x4 grid
        g = mesh_to_dual_graph(m)
        deg = g.degrees()
        # Corner cells have 2 neighbours, edges 3, interior 4.
        assert sorted(np.unique(deg)) == [2, 3, 4]
        assert (deg == 2).sum() == 4

    def test_vertex_weights_passed_through(self, small_mesh):
        vw = np.random.default_rng(0).random((small_mesh.num_cells, 2))
        g = mesh_to_dual_graph(small_mesh, vwgt=vw)
        np.testing.assert_array_equal(g.vwgt, vw)

    def test_area_edge_weights(self, small_mesh):
        g = dual_graph(small_mesh, "area")
        interior = small_mesh.interior_faces()
        assert (g.adjwgt.sum() / 2) == pytest.approx(
            small_mesh.face_area[interior].sum()
        )
