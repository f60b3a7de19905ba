"""Tests for the out-of-core scale rung.

Streaming dual construction (chunked two-pass count/fill, bit-identical
to the adjacency :meth:`Mesh.cell_adjacency` materializes).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.mesh import dual
from repro.mesh.dual import DEFAULT_CHUNK_FACES, mesh_to_dual_graph
from repro.mesh.generators import cylinder_mesh, uniform_mesh


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
    return ref, mesh_to_dual_graph(mesh, edge_weight=edge_weight)


# ----------------------------------------------------------------------
# Streaming dual construction
# ----------------------------------------------------------------------
class TestStreamingDual:
    @pytest.mark.parametrize("depth", [3, 5])  # odd depths
    @pytest.mark.parametrize("chunk", [7, 1000, DEFAULT_CHUNK_FACES])
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
