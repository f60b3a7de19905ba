"""Tests for the out-of-core scale rung.

Streaming dual construction (chunked two-pass count/fill, bit-identical
to the adjacency :meth:`Mesh.cell_adjacency` materializes), and the
chunked mesh builders, whose meshes do not depend on the chunk size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.mesh import chunked, dual
from repro.mesh.chunked import DEFAULT_CHUNK_CELLS
from repro.mesh.dual import DEFAULT_CHUNK_FACES, mesh_to_dual_graph
from repro.mesh.generators import (
    cube_mesh,
    cylinder_mesh,
    pprime_nozzle_mesh,
    uniform_mesh,
)
from repro.mesh.octree import octree_cylinder_mesh
from tests.golden.regen import dual_graph


def _assert_same_graph(a: CSRGraph, b: CSRGraph) -> None:
    np.testing.assert_array_equal(a.xadj, b.xadj)
    np.testing.assert_array_equal(a.adjncy, b.adjncy)
    np.testing.assert_array_equal(a.adjwgt, b.adjwgt)


def _materialized_and_streamed(make_mesh, monkeypatch, chunk, edge_weight):
    """The dual read off ``cell_adjacency`` and the dual streamed in
    ``chunk``-face windows."""
    mesh = make_mesh()
    xadj, adjncy, face_of = mesh.cell_adjacency()
    adjwgt = mesh.face_area[face_of] if edge_weight == "area" else None
    ref = CSRGraph(xadj, adjncy, adjwgt=adjwgt)
    monkeypatch.setattr(dual, "DEFAULT_CHUNK_FACES", chunk)
    return ref, dual_graph(mesh, edge_weight)


# ----------------------------------------------------------------------
# Streaming dual construction
# ----------------------------------------------------------------------
class TestStreamingDual:
    @pytest.mark.parametrize("depth", [3, 5])  # odd depths
    @pytest.mark.parametrize(
        "chunk", [7, 1000, 1 << 17, DEFAULT_CHUNK_FACES]
    )
    @pytest.mark.parametrize("edge_weight", ["unit", "area"])
    def test_bit_identical_to_materialized(
        self, depth, chunk, edge_weight, monkeypatch
    ):
        ref, got = _materialized_and_streamed(
            lambda: uniform_mesh(depth=depth), monkeypatch, chunk, edge_weight
        )
        _assert_same_graph(ref, got)

    def test_adaptive_mesh(self, monkeypatch):
        ref, got = _materialized_and_streamed(
            lambda: cylinder_mesh(max_depth=6),
            monkeypatch,
            997,  # prime chunk: windows never align with runs
            "area",
        )
        _assert_same_graph(ref, got)

    def test_engine_resolution(self, monkeypatch):
        # Every dual is streamed in default-size windows, whether or
        # not the mesh's own adjacency cache is warm.
        calls = []
        real = dual._streaming_adjacency

        def spy(*args, **kwargs):
            calls.append(kwargs["chunk_faces"])
            return real(*args, **kwargs)

        monkeypatch.setattr(dual, "_streaming_adjacency", spy)
        mesh = uniform_mesh(depth=3)
        mesh_to_dual_graph(mesh)
        assert calls == [DEFAULT_CHUNK_FACES]
        assert mesh._adjacency is None  # streaming leaves the cache cold
        mesh.cell_adjacency()
        mesh_to_dual_graph(mesh)
        assert calls == [DEFAULT_CHUNK_FACES] * 2


# ----------------------------------------------------------------------
# Chunked mesh builders
# ----------------------------------------------------------------------
_BUILDER_CASES = [
    (factory, depth)
    for factory in (cylinder_mesh, cube_mesh, pprime_nozzle_mesh)
    for depth in (7, 8)
] + [(octree_cylinder_mesh, depth) for depth in (6, 7)]

_reference_meshes: dict = {}


def _mesh_arrays(out) -> list[np.ndarray]:
    """Every array a builder returns: the mesh's, then the octree's
    3D centres."""
    mesh, *rest = out if isinstance(out, tuple) else (out,)
    fields = (
        "cell_centers", "cell_volumes", "cell_depth", "face_cells",
        "face_area", "face_normal", "face_center",
    )
    return [getattr(mesh, f) for f in fields] + rest


class TestChunkedBuilders:
    """Refine, balance and the two face passes run over chunks of
    ``DEFAULT_CHUNK_CELLS`` cells; the quadtree and octree meshes are
    the same, array for array and dtype for dtype, at any size."""

    @pytest.mark.parametrize(
        "factory,depth",
        _BUILDER_CASES,
        ids=[f"{f.__name__}-{d}" for f, d in _BUILDER_CASES],
    )
    @pytest.mark.parametrize("chunk", [7, 1000, DEFAULT_CHUNK_CELLS])
    def test_identical_for_any_chunk(self, factory, depth, chunk, monkeypatch):
        key = (factory.__name__, depth)
        if key not in _reference_meshes:
            _reference_meshes[key] = _mesh_arrays(factory(max_depth=depth))
        want = _reference_meshes[key]
        monkeypatch.setattr(chunked, "DEFAULT_CHUNK_CELLS", chunk)
        got = _mesh_arrays(factory(max_depth=depth))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
