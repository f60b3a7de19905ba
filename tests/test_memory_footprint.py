"""Allocation peaks of the passes that see a whole mesh or a whole graph.

A chain's main process holds its live artifacts plus whatever the pass
running at the moment allocates on top.  These tests pin that overhead
with ``tracemalloc`` at tier-1 sizes, in the style of
``tests/test_vcycle_typed_state.py::TestFmFootprint``:

* the quadtree and octree builders peak at a small multiple of the
  mesh they return (faces are counted, then written in place);
* ``connected_components`` and ``edge_cut`` stream the CSR rows in
  windows, so their peak per graph element stays a few bytes, and the
  windowed results equal the whole-graph ones at any window size;
* the task graph's face-group relations read the faces in windows
  and equal a single pass;
* bisection-tree nodes hand their children int32 ids, and a forked
  tree leaves the process that called it only the labels.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.graph.csr as csr_mod
from repro.graph.contracts import connected_components
from repro.graph.csr import graph_from_edges
from repro.graph.metrics import edge_cut
from repro.graph.partition import _tree_node, recursive_bisection
from repro.mesh import dual
from repro.mesh.generators import cylinder_mesh
from repro.mesh.octree import octree_cylinder_mesh
from repro.partitioning.decomposition import DomainDecomposition
from repro.taskgraph.generation import _group_relations, classify_objects
from repro.util.forkpool import can_fork_pool
from tests.golden.regen import dual_graph
from tests.test_vcycle_typed_state import big_grid


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _nbytes(out) -> int:
    mesh, *rest = out if isinstance(out, tuple) else (out,)
    arrays = [v for v in vars(mesh).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays + rest)


class TestBuilderFootprint:
    """Peak traced bytes over output bytes, several chunks per pass.
    The parent kept every chunk's face parts, sorted them and
    concatenated them at the end: 4.93 on the quadtree cylinder at
    depth 11 (90,088 cells) and 4.54 on the octree cylinder at depth 8
    (39,152 cells).  Counting the faces, then filling them in place,
    gives 1.69 and 1.97."""

    @pytest.mark.parametrize(
        "build,depth,k",
        [(cylinder_mesh, 11, 2.0), (octree_cylinder_mesh, 8, 2.5)],
        ids=["quadtree", "octree"],
    )
    def test_peak_within_k_times_output(self, build, depth, k):
        out, peak = _traced_peak(lambda: build(max_depth=depth))
        assert peak <= k * _nbytes(out)


class TestWholeGraphPassFootprint:
    """n = 90,000, m = 358,800 (three row windows).  Gathering over
    all m entries at once cost ``connected_components`` 17.8 B per
    (n + m) and ``edge_cut`` 13.6 B (its ``edge_sources`` included).
    Row windows give 8.6 B and 2.9 B; an int32 forest whose jumps
    gather in vertex windows takes ``connected_components`` to 4.9 B."""

    @pytest.fixture(scope="class")
    def grid(self):
        g = big_grid(300, 1.0)
        g.degrees()  # the graph's own cache, not the pass's state
        return g

    def test_connected_components(self, grid):
        n, m = grid.num_vertices, len(grid.adjncy)
        (_, ncomp), peak = _traced_peak(connected_components, grid)
        assert ncomp == 1
        assert peak / (n + m) <= 6.0

    def test_edge_cut(self, grid):
        n, m = grid.num_vertices, len(grid.adjncy)
        part = (np.arange(n) // 300 >= 150).astype(np.int32)
        cut, peak = _traced_peak(edge_cut, grid, part)
        assert cut == 300.0
        assert peak / (n + m) <= 4.0
        assert grid._edge_sources is None  # neither built nor cached


class TestRowWindows:
    """The windowed passes give the whole-graph results for any window,
    down to one row per window."""

    @pytest.mark.parametrize("window", [1, 5, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_components_do_not_depend_on_window(
        self, seed, window, monkeypatch
    ):
        rng = np.random.default_rng(seed)
        n = 200
        edges = rng.integers(0, n, (150, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        g = graph_from_edges(n, edges)
        want_labels, want_n = connected_components(g)  # one window
        monkeypatch.setattr(csr_mod, "ROW_WINDOW_EDGES", window)
        labels, ncomp = connected_components(g)
        assert ncomp == want_n > 1
        np.testing.assert_array_equal(labels, want_labels)

    @pytest.mark.parametrize("window", [1, 7, 1000])
    def test_area_cut_is_the_same_float(self, window, monkeypatch):
        """Face-area weights are not integers, yet the cut equals, bit
        for bit, a single sum over the whole graph's cut entries."""
        g = dual_graph(cylinder_mesh(max_depth=8), "area")
        part = np.random.default_rng(3).integers(0, 4, g.num_vertices)
        cut = part[np.repeat(np.arange(g.num_vertices), g.degrees())]
        whole = float(g.adjwgt[cut != part[g.adjncy]].sum()) / 2.0
        monkeypatch.setattr(csr_mod, "ROW_WINDOW_EDGES", window)
        assert edge_cut(g, part) == whole

    def test_windows_cover_rows_in_order(self, monkeypatch):
        g = big_grid(5, 1.0)
        monkeypatch.setattr(csr_mod, "ROW_WINDOW_EDGES", 6)
        windows = list(g.row_windows())
        assert windows[0][0] == 0 and windows[-1][1] == g.num_vertices
        for (_, hi), (lo, _) in zip(windows, windows[1:]):
            assert hi == lo
        for lo, hi in windows:
            assert hi == lo + 1 or g.xadj[hi] - g.xadj[lo] <= 6


class TestFaceGroupWindows:
    """The task graph's face-group relations, read in face windows,
    equal one pass over all faces, on both the bitmap path (64 groups)
    and the sorted-unique path (2,400 groups); so do the face levels
    and the object classification, whose traced peaks at 357k cells
    were 14.3 and 23.2 MiB in one pass and are 3.0 and 8.0 MiB in
    windows."""

    @pytest.mark.parametrize("ngroups", [64, 2400])
    def test_relations_do_not_depend_on_window(self, ngroups, monkeypatch):
        mesh = cylinder_mesh(max_depth=8)
        rng = np.random.default_rng(ngroups)
        fgid = rng.integers(0, ngroups, mesh.num_faces)
        cgid = rng.integers(0, ngroups, mesh.num_cells)
        want = _group_relations(mesh, fgid, cgid, ngroups)  # one window
        monkeypatch.setattr(dual, "DEFAULT_CHUNK_FACES", 7)
        got = _group_relations(mesh, fgid, cgid, ngroups)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_classification_does_not_depend_on_window(self, monkeypatch):
        mesh = cylinder_mesh(max_depth=8)
        rng = np.random.default_rng(5)
        tau = rng.integers(0, 4, mesh.num_cells).astype(np.int32)
        decomp = DomainDecomposition.block_mapping(
            rng.integers(0, 6, mesh.num_cells), 6, 2
        )
        want = classify_objects(mesh, tau, decomp)  # one window
        monkeypatch.setattr(dual, "DEFAULT_CHUNK_FACES", 7)
        got = classify_objects(mesh, tau, decomp)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype
            np.testing.assert_array_equal(got[key], want[key])
        a, b = mesh.face_cells.T
        inner = b >= 0
        levels = tau[a].copy()
        levels[inner] = np.minimum(levels[inner], tau[b[inner]])
        np.testing.assert_array_equal(got["face_level"], levels)
        external = np.zeros(mesh.num_faces, dtype=bool)
        external[inner] = decomp.domain[a[inner]] != decomp.domain[b[inner]]
        np.testing.assert_array_equal(got["face_locality"], external)


class TestTreePayloads:
    def test_child_ids_are_int32(self):
        g = big_grid(20, 1.0)
        children = _tree_node(
            g, None, 0, 4, 0, np.random.default_rng(0), None, 1.01
        )
        for vertices, *_ in children:
            assert vertices.dtype == np.int32
        grandchildren = _tree_node(g, *children[0], 1.01)
        for vertices, *_ in grandchildren:
            assert vertices.dtype == np.int32

    @pytest.mark.skipif(not can_fork_pool(2), reason="needs fork")
    def test_forked_tree_leaves_the_caller_only_its_labels(self):
        """A pooled 8-part tree on 90,000 vertices: the parent relayed
        every node's children through this process, 2.5 MB traced above
        the labels.  Forked subtrees send back only labels, which land
        in the labels' own buffer: 2 KB above them."""
        g = big_grid(300, 1.0)
        g.degrees()  # the graph's own cache, not the tree's state
        part, peak = _traced_peak(
            lambda: recursive_bisection(
                g, 8, np.random.default_rng(0), n_jobs=2
            )
        )
        assert len(np.unique(part)) == 8
        assert peak <= part.nbytes + 64 * 1024
