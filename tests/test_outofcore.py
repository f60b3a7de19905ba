"""Tests for the out-of-core scale rung.

Streaming dual construction (chunked two-pass count/fill, bit-identical
to the graph read from the mesh's materialized adjacency cache), and
the stale sweep of shared CSR segment files left by dead processes.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.graph.shared import stale_segments, sweep_stale_segments
from repro.mesh import dual
from repro.mesh.dual import DEFAULT_CHUNK_FACES, mesh_to_dual_graph
from repro.mesh.generators import cylinder_mesh, uniform_mesh


def _assert_same_graph(a: CSRGraph, b: CSRGraph) -> None:
    np.testing.assert_array_equal(a.xadj, b.xadj)
    np.testing.assert_array_equal(a.adjncy, b.adjncy)
    np.testing.assert_array_equal(a.adjwgt, b.adjwgt)
    assert a.adjncy.dtype == b.adjncy.dtype
    assert a.adjwgt.dtype == b.adjwgt.dtype


def _cached_and_streamed(make_mesh, monkeypatch, chunk, **kw):
    """The dual of a warm mesh (served from ``cell_adjacency``) and of
    a cold copy streamed in ``chunk``-face windows."""
    warm = make_mesh()
    warm.cell_adjacency()
    ref = mesh_to_dual_graph(warm, **kw)
    cold = make_mesh()
    assert cold._adjacency is None
    monkeypatch.setattr(dual, "DEFAULT_CHUNK_FACES", chunk)
    return ref, mesh_to_dual_graph(cold, **kw)


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
        ref, got = _cached_and_streamed(
            lambda: uniform_mesh(depth=depth),
            monkeypatch,
            chunk,
            edge_weight=edge_weight,
        )
        _assert_same_graph(ref, got)

    def test_adaptive_mesh_and_narrowing(self, monkeypatch):
        ref, got = _cached_and_streamed(
            lambda: cylinder_mesh(max_depth=6),
            monkeypatch,
            997,  # prime chunk: windows never align with runs
            edge_weight="area",
            index_dtype="auto",
        )
        _assert_same_graph(ref, got)
        assert got.adjncy.dtype == np.int32

    def test_weight_dtype_narrowing(self, monkeypatch):
        ref, got = _cached_and_streamed(
            lambda: uniform_mesh(depth=4),
            monkeypatch,
            13,
            edge_weight="area",
            weight_dtype=np.float32,
        )
        _assert_same_graph(ref, got)
        assert got.adjwgt.dtype == np.float32

    @staticmethod
    def _spy_streaming(monkeypatch):
        calls = []
        real = dual._streaming_adjacency

        def spy(*args, **kwargs):
            calls.append(kwargs["chunk_faces"])
            return real(*args, **kwargs)

        monkeypatch.setattr(dual, "_streaming_adjacency", spy)
        return calls

    def test_engine_resolution(self, monkeypatch):
        # The construction path follows the mesh's cache state: a cold
        # mesh streams in default-size windows and stays cold.
        calls = self._spy_streaming(monkeypatch)
        mesh = uniform_mesh(depth=3)
        mesh_to_dual_graph(mesh)
        assert calls == [DEFAULT_CHUNK_FACES]
        assert mesh._adjacency is None  # streaming leaves the cache cold

    def test_warm_adjacency_cache_reused_unless_explicit(self, monkeypatch):
        # A warm mesh is served from its adjacency cache without
        # streaming; a cold copy is the explicit way to stream, and both
        # paths give the same graph.
        calls = self._spy_streaming(monkeypatch)
        mesh = uniform_mesh(depth=3)
        mesh.cell_adjacency()  # warm the cache
        assert mesh._adjacency is not None
        cached = mesh_to_dual_graph(mesh)
        assert calls == []
        streamed = mesh_to_dual_graph(uniform_mesh(depth=3))
        assert calls == [DEFAULT_CHUNK_FACES]
        _assert_same_graph(cached, streamed)


# ----------------------------------------------------------------------
# Stale shared CSR segment files are swept by owner pid
# ----------------------------------------------------------------------
class TestSpillGc:
    def test_stale_spill_file_swept(self):
        dead = 2**22 + 12345  # beyond pid_max defaults: no such process
        name = f"repro_csr_{dead}_deadbeef.bin"
        path = os.path.join(tempfile.gettempdir(), name)
        with open(path, "wb") as f:
            f.write(b"\0" * 16)
        try:
            assert name in [p.name for p in stale_segments()]
            assert name in sweep_stale_segments(remove=True)
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_live_spill_file_kept(self):
        name = f"repro_csr_{os.getpid()}_alive.bin"
        path = os.path.join(tempfile.gettempdir(), name)
        with open(path, "wb") as f:
            f.write(b"\0" * 16)
        try:
            assert name not in [p.name for p in stale_segments()]
        finally:
            os.unlink(path)
