"""Tests for heavy-edge matching and graph contraction."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import graph_from_edges, validate_csr
from repro.graph.coarsen import (
    _edge_spread,
    contract,
    coarsen_once,
    heavy_edge_matching,
)
from repro.mesh.dual import mesh_to_dual_graph


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestMatching:
    def test_matching_is_symmetric(self, medium_grid):
        match = heavy_edge_matching(medium_grid, _rng())
        np.testing.assert_array_equal(match[match], np.arange(len(match)))

    def test_matched_pairs_are_adjacent(self, small_grid):
        g = small_grid
        match = heavy_edge_matching(g, _rng())
        for v in range(g.num_vertices):
            u = match[v]
            if u != v:
                assert u in g.neighbors(v)

    def test_prefers_heavy_edges(self):
        # Ladder with heavy rungs: every vertex's heaviest neighbour is
        # its rung partner, so HEM must match exactly the rungs
        # (provable by induction on visit order, any seed).
        k = 6
        edges, ewgt = [], []
        for i in range(k):
            edges.append((2 * i, 2 * i + 1))
            ewgt.append(10.0)
            if i + 1 < k:
                edges.append((2 * i, 2 * (i + 1)))
                ewgt.append(1.0)
                edges.append((2 * i + 1, 2 * (i + 1) + 1))
                ewgt.append(1.0)
        g = graph_from_edges(2 * k, np.array(edges), ewgt=np.array(ewgt))
        for seed in range(5):
            match = heavy_edge_matching(g, _rng(seed))
            for i in range(k):
                assert match[2 * i] == 2 * i + 1
                assert match[2 * i + 1] == 2 * i

    def test_matches_most_vertices_on_grid(self, medium_grid):
        match = heavy_edge_matching(medium_grid, _rng())
        unmatched = np.sum(match == np.arange(len(match)))
        assert unmatched < 0.2 * medium_grid.num_vertices

    def test_isolated_vertices_stay_unmatched(self):
        g = graph_from_edges(4, [(0, 1)])
        match = heavy_edge_matching(g, _rng())
        assert match[2] == 2
        assert match[3] == 3

    @pytest.mark.parametrize("ncon", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [np.float64])
    def test_edge_spread_equals_short_axis_formula(self, medium_grid, ncon, dtype):
        # The column-at-a-time spread must be the (m, ncon) max - min
        # reduction bit for bit.
        g = medium_grid
        vwgt = _rng(ncon).uniform(0.0, 3.0, (g.num_vertices, ncon)).astype(dtype)
        e_src, e_dst = g.edge_sources(), g.adjncy
        combined = vwgt[e_src] + vwgt[e_dst]
        want = combined.max(axis=1) - combined.min(axis=1)
        got = _edge_spread(vwgt, e_src, e_dst)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    def test_unit_weight_multiconstraint_matchings_pinned(
        self, medium_grid, small_cube_mesh, small_cube_tau
    ):
        # Unit edge weights with several constraints skip the
        # heaviest-edge stage (all edges tie); the matchings are pinned
        # to the ones the three-stage path produced.
        n = medium_grid.num_vertices
        rng = _rng(7)
        dense = medium_grid.with_vwgt(rng.uniform(0.5, 2.0, (n, 3)))
        narrow = medium_grid.with_vwgt(
            rng.integers(1, 5, (n, 2)).astype(np.float32)
        )
        lev = np.zeros((small_cube_mesh.num_cells, 4))
        lev[np.arange(small_cube_mesh.num_cells), small_cube_tau] = 1.0
        one_hot = mesh_to_dual_graph(small_cube_mesh).with_vwgt(lev)
        pinned = {
            "151902e309e3308c": dense,
            "3ae1f87faec85a3e": narrow,
            "548103018254e7b5": one_hot,
        }
        for digest, g in pinned.items():
            assert g.adjwgt.min() == g.adjwgt.max() == 1.0
            match = heavy_edge_matching(g, _rng(3)).astype(np.int64)
            assert hashlib.sha256(match.tobytes()).hexdigest()[:16] == digest


class TestContract:
    def test_weights_conserved(self, medium_grid):
        lvl = coarsen_once(medium_grid, _rng())
        np.testing.assert_allclose(
            lvl.graph.total_vwgt(), medium_grid.total_vwgt()
        )

    def test_edge_weight_conserved_minus_internal(self, small_grid):
        g = small_grid
        match = heavy_edge_matching(g, _rng())
        lvl = contract(g, match)
        # Internal (contracted) edge weight disappears from the total.
        internal = sum(
            g.adjwgt[g.xadj[v] + i]
            for v in range(g.num_vertices)
            for i, u in enumerate(g.neighbors(v))
            if match[v] == u
        ) / 2.0
        assert lvl.graph.total_edge_weight() == pytest.approx(
            g.total_edge_weight() - internal
        )

    def test_cmap_surjective(self, small_grid):
        lvl = coarsen_once(small_grid, _rng())
        nc = lvl.graph.num_vertices
        assert set(np.unique(lvl.cmap)) == set(range(nc))

    def test_coarse_graph_valid(self, medium_grid):
        lvl = coarsen_once(medium_grid, _rng())
        validate_csr(lvl.graph)

    def test_shrinks_grid_substantially(self, medium_grid):
        lvl = coarsen_once(medium_grid, _rng())
        assert lvl.graph.num_vertices < 0.7 * medium_grid.num_vertices

    @pytest.mark.parametrize("matched_fraction", [0.0, 0.3, 1.0])
    def test_coarse_ids_equal_sorted_unique_relabel(
        self, medium_grid, matched_fraction
    ):
        # Coarse ids rank the pair leaders in vertex order — what
        # np.unique(leader, return_inverse=True) assigns — for random
        # (not necessarily adjacent) matchings, all-unmatched included.
        g = medium_grid
        n = g.num_vertices
        for seed in range(5):
            perm = _rng(seed).permutation(n)
            k = int(matched_fraction * n) // 2
            match = np.arange(n)
            match[perm[:k]] = perm[k : 2 * k]
            match[perm[k : 2 * k]] = perm[:k]
            uniq, cmap = np.unique(
                np.minimum(np.arange(n), match), return_inverse=True
            )
            lvl = contract(g, match)
            assert lvl.graph.num_vertices == len(uniq) == n - k
            np.testing.assert_array_equal(lvl.cmap, cmap)

    def test_multi_constraint_weights_summed(self):
        vw = np.eye(4)
        g = graph_from_edges(4, [(0, 1), (2, 3)], vwgt=vw)
        match = np.array([1, 0, 3, 2])
        lvl = contract(g, match)
        assert lvl.graph.num_vertices == 2
        np.testing.assert_allclose(lvl.graph.total_vwgt(), np.ones(4))
        # Each coarse vertex holds two constraint units.
        assert np.all(lvl.graph.vwgt.sum(axis=1) == 2.0)


@st.composite
def random_connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    edges = [(i, i + 1) for i in range(n - 1)]  # spanning path
    extra = draw(st.integers(min_value=0, max_value=20))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    return graph_from_edges(n, np.array(edges))


class TestCoarsenProperties:
    @given(random_connected_graphs(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, g, seed):
        lvl = coarsen_once(g, _rng(seed))
        validate_csr(lvl.graph)
        np.testing.assert_allclose(lvl.graph.total_vwgt(), g.total_vwgt())
        assert lvl.graph.num_vertices <= g.num_vertices
        # cmap maps every fine vertex to a valid coarse vertex.
        assert lvl.cmap.min() >= 0
        assert lvl.cmap.max() < lvl.graph.num_vertices
