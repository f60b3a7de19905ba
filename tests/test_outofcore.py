"""Tests for the out-of-core scale rung.

Streaming dual construction (chunked two-pass count/fill,
bit-identical to the materialized oracle), and the stale sweep of
shared CSR segment files left by dead processes.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.graph.shared import stale_segments, sweep_stale_segments
from repro.mesh.dual import (
    DEFAULT_CHUNK_FACES,
    mesh_to_dual_graph,
    resolve_dual_engine,
)
from repro.mesh.generators import cylinder_mesh, uniform_mesh


def _assert_same_graph(a: CSRGraph, b: CSRGraph) -> None:
    np.testing.assert_array_equal(a.xadj, b.xadj)
    np.testing.assert_array_equal(a.adjncy, b.adjncy)
    np.testing.assert_array_equal(a.adjwgt, b.adjwgt)
    assert a.adjncy.dtype == b.adjncy.dtype
    assert a.adjwgt.dtype == b.adjwgt.dtype


# ----------------------------------------------------------------------
# Streaming dual construction
# ----------------------------------------------------------------------
class TestStreamingDual:
    @pytest.mark.parametrize("depth", [3, 5])  # odd depths
    @pytest.mark.parametrize("chunk", [7, 1000, DEFAULT_CHUNK_FACES])
    @pytest.mark.parametrize("edge_weight", ["unit", "area"])
    def test_bit_identical_to_materialized(self, depth, chunk, edge_weight):
        mesh = uniform_mesh(depth=depth)
        ref = mesh_to_dual_graph(
            mesh, edge_weight=edge_weight, engine="materialized"
        )
        got = mesh_to_dual_graph(
            mesh,
            edge_weight=edge_weight,
            engine="streaming",
            chunk_faces=chunk,
        )
        _assert_same_graph(ref, got)

    def test_adaptive_mesh_and_narrowing(self):
        mesh = cylinder_mesh(max_depth=6)
        ref = mesh_to_dual_graph(
            mesh, edge_weight="area", index_dtype="auto", engine="materialized"
        )
        got = mesh_to_dual_graph(
            mesh,
            edge_weight="area",
            index_dtype="auto",
            engine="streaming",
            chunk_faces=997,  # prime chunk: windows never align with runs
        )
        _assert_same_graph(ref, got)
        assert got.adjncy.dtype == np.int32

    def test_weight_dtype_narrowing(self):
        mesh = uniform_mesh(depth=4)
        ref = mesh_to_dual_graph(
            mesh,
            edge_weight="area",
            weight_dtype=np.float32,
            engine="materialized",
        )
        got = mesh_to_dual_graph(
            mesh,
            edge_weight="area",
            weight_dtype=np.float32,
            engine="streaming",
            chunk_faces=13,
        )
        _assert_same_graph(ref, got)
        assert got.adjwgt.dtype == np.float32

    def test_engine_resolution(self):
        assert resolve_dual_engine(None) == "streaming"
        assert resolve_dual_engine("materialized") == "materialized"
        with pytest.raises(ValueError, match="unknown dual engine"):
            resolve_dual_engine("mmap")

    def test_warm_adjacency_cache_reused_unless_explicit(self):
        mesh = uniform_mesh(depth=3)
        mesh.cell_adjacency()  # warm the cache
        assert mesh._adjacency is not None
        # Default engine serves the warm cache; explicit request streams.
        cached = mesh_to_dual_graph(mesh)
        streamed = mesh_to_dual_graph(mesh, engine="streaming")
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
