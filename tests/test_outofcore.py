"""Tests for the out-of-core scale rung.

Two surfaces introduced together: streaming dual construction
(chunked two-pass count/fill, bit-identical to the materialized
oracle) and the byte-budgeted spillable coarsening hierarchy
(``HierarchySpill`` + ``REPRO_HIERARCHY_BUDGET``).
"""

from __future__ import annotations

import glob
import os
import tempfile

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.graph.bisect import multilevel_bisect
from repro.graph.coarsen import HierarchySpill, contract, heavy_edge_matching
from repro.graph.partition import partition_graph
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


def _spill_litter() -> list[str]:
    return glob.glob(os.path.join(tempfile.gettempdir(), "repro_spill_*"))


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
# Spillable coarsening hierarchy
# ----------------------------------------------------------------------
class TestHierarchySpill:
    def test_disabled_without_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_HIERARCHY_BUDGET", raising=False)
        spill = HierarchySpill()
        assert not spill.enabled
        assert spill.stats()["budget_bytes"] is None

    def test_budget_parsing(self):
        assert HierarchySpill(budget="64K").budget == 64 * 1024
        assert HierarchySpill(budget=123).budget == 123
        assert HierarchySpill(budget="2M").enabled

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_HIERARCHY_BUDGET", "1M")
        spill = HierarchySpill()
        assert spill.budget == 1 << 20

    def test_offload_reload_roundtrip(self):
        g = mesh_to_dual_graph(uniform_mesh(depth=3))
        match = heavy_edge_matching(g, np.random.default_rng(0))
        lvl = contract(g, match)
        want = lvl.graph
        nbytes = (
            want.xadj.nbytes
            + want.adjncy.nbytes
            + want.vwgt.nbytes
            + want.adjwgt.nbytes
        )
        spill = HierarchySpill(budget=1)
        assert spill.offload(lvl, 0) == 0  # spilled: nothing resident
        assert lvl.graph is None
        assert lvl.spill_handle is not None
        assert spill.stats()["spills"] == 1
        assert spill.stats()["spilled_bytes"] == nbytes
        got, reader = spill.reload(lvl)
        _assert_same_graph(want, got)
        np.testing.assert_array_equal(want.vwgt, got.vwgt)
        assert spill.stats()["attaches"] == 1
        HierarchySpill.release(lvl, reader)
        assert lvl.spill_handle is None
        assert not _spill_litter()

    def test_within_budget_stays_resident(self):
        g = mesh_to_dual_graph(uniform_mesh(depth=3))
        lvl = contract(g, heavy_edge_matching(g, np.random.default_rng(0)))
        spill = HierarchySpill(budget="1G")
        resident = spill.offload(lvl, 0)
        assert resident > 0  # accounted, not spilled
        assert lvl.graph is not None
        assert spill.stats()["spills"] == 0

    def test_multilevel_bisect_labels_bit_identical(self):
        g = mesh_to_dual_graph(uniform_mesh(depth=5))
        base = multilevel_bisect(g, 0.5, np.random.default_rng(7))
        spill = HierarchySpill(budget=1)
        forced = multilevel_bisect(
            g, 0.5, np.random.default_rng(7), spill=spill
        )
        np.testing.assert_array_equal(base, forced)
        assert spill.stats()["spills"] > 0
        assert spill.stats()["attaches"] == spill.stats()["spills"]
        assert not _spill_litter()

    @pytest.mark.parametrize("method", ["recursive", "kway"])
    def test_partition_graph_forced_spill(self, monkeypatch, method):
        g = mesh_to_dual_graph(uniform_mesh(depth=5))
        monkeypatch.delenv("REPRO_HIERARCHY_BUDGET", raising=False)
        base = partition_graph(g, 6, seed=3, method=method)
        assert base.spill == {}
        monkeypatch.setenv("REPRO_HIERARCHY_BUDGET", "1")
        res = partition_graph(g, 6, seed=3, method=method)
        np.testing.assert_array_equal(base.part, res.part)
        assert res.spill["spills"] > 0
        assert res.spill["budget_bytes"] == 1
        assert not _spill_litter()

    def test_absorb_folds_worker_stats(self):
        spill = HierarchySpill(budget=1)
        spill.absorb({"spills": 2, "attaches": 2, "spilled_bytes": 100})
        spill.absorb({"spills": 1, "attaches": 1, "spilled_bytes": 50})
        st = spill.stats()
        assert (st["spills"], st["attaches"], st["spilled_bytes"]) == (
            3,
            3,
            150,
        )


# ----------------------------------------------------------------------
# Stale spill files are swept with the other segments
# ----------------------------------------------------------------------
class TestSpillGc:
    def test_stale_spill_file_swept(self):
        dead = 2**22 + 12345  # beyond pid_max defaults: no such process
        path = os.path.join(
            tempfile.gettempdir(), f"repro_spill_{dead}_deadbeef"
        )
        with open(path, "wb") as f:
            f.write(b"\0" * 16)
        try:
            names = [p.name for p in stale_segments()]
            assert f"repro_spill_{dead}_deadbeef" in names
            removed = sweep_stale_segments(remove=True)
            assert f"repro_spill_{dead}_deadbeef" in removed
            assert not os.path.exists(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def test_live_spill_file_kept(self):
        path = os.path.join(
            tempfile.gettempdir(), f"repro_spill_{os.getpid()}_alive"
        )
        with open(path, "wb") as f:
            f.write(b"\0" * 16)
        try:
            names = [p.name for p in stale_segments()]
            assert f"repro_spill_{os.getpid()}_alive" not in names
        finally:
            os.unlink(path)
