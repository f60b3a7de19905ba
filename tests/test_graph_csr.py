"""Tests for the CSR graph structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, graph_from_edges, validate_csr


class TestGraphFromEdges:
    def test_triangle(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert sorted(g.neighbors(1).tolist()) == [0, 2]
        validate_csr(g)

    def test_default_weights(self):
        g = graph_from_edges(3, [(0, 1)])
        assert g.vwgt.shape == (3, 1)
        assert np.all(g.vwgt == 1.0)
        assert np.all(g.adjwgt == 1.0)

    def test_duplicate_edges_merge_weights(self):
        g = graph_from_edges(2, [(0, 1), (1, 0)], ewgt=[2.0, 3.0])
        assert g.num_edges == 1
        assert (g.adjwgt.sum() / 2) == pytest.approx(5.0)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_edges(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            graph_from_edges(2, [(0, 2)])

    def test_empty_graph(self):
        g = graph_from_edges(5, np.empty((0, 2)))
        assert g.num_vertices == 5
        assert g.num_edges == 0
        validate_csr(g)

    def test_vertex_weights_1d_promoted(self):
        g = graph_from_edges(3, [(0, 1)], vwgt=np.array([1.0, 2.0, 3.0]))
        assert g.vwgt.shape == (3, 1)
        assert g.ncon == 1

    def test_multi_constraint_weights(self):
        vw = np.eye(3)
        g = graph_from_edges(3, [(0, 1), (1, 2)], vwgt=vw)
        assert g.ncon == 3
        np.testing.assert_array_equal(g.total_vwgt(), np.ones(3))

    def test_degrees(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        np.testing.assert_array_equal(g.degrees(), [3, 1, 1, 1])

    def test_edge_weights_aligned_with_neighbors(self):
        g = graph_from_edges(3, [(0, 1), (0, 2)], ewgt=[5.0, 7.0])
        nbrs = g.neighbors(0)
        wgts = g.edge_weights(0)
        lookup = dict(zip(nbrs.tolist(), wgts.tolist()))
        assert lookup == {1: 5.0, 2: 7.0}


class TestValidate:
    def test_detects_asymmetry(self):
        # Hand-build a broken CSR: edge 0->1 but not 1->0.
        g = CSRGraph(
            xadj=np.array([0, 1, 1]),
            adjncy=np.array([1]),
        )
        with pytest.raises(ValueError):
            validate_csr(g)

    def test_detects_bad_xadj(self):
        g = CSRGraph(xadj=np.array([0, 2, 1]), adjncy=np.array([1, 0]))
        with pytest.raises(ValueError):
            validate_csr(g)


class TestSubgraph:
    def test_induced_subgraph_of_path(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        sub, mapping = g.subgraph(np.array([1, 2, 3]))
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # edges (1,2),(2,3); (0,1) dropped
        np.testing.assert_array_equal(mapping, [1, 2, 3])
        validate_csr(sub)

    def test_subgraph_keeps_weights(self):
        vw = np.arange(8, dtype=float).reshape(4, 2)
        g = graph_from_edges(4, [(0, 1), (2, 3)], vwgt=vw)
        sub, mapping = g.subgraph(np.array([2, 3]))
        np.testing.assert_array_equal(sub.vwgt, vw[2:])

    def test_empty_subgraph(self):
        g = graph_from_edges(3, [(0, 1)])
        sub, mapping = g.subgraph(np.array([], dtype=np.int64))
        assert sub.num_vertices == 0
        assert sub.num_edges == 0


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    m = draw(st.integers(min_value=0, max_value=60))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    return n, edges


class TestPropertyBased:
    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_from_edges_always_valid(self, data):
        n, edges = data
        g = graph_from_edges(n, np.array(edges).reshape(-1, 2))
        validate_csr(g)

    @given(random_graphs())
    @settings(max_examples=60, deadline=None)
    def test_handshake_lemma(self, data):
        n, edges = data
        g = graph_from_edges(n, np.array(edges).reshape(-1, 2))
        assert g.degrees().sum() == 2 * g.num_edges

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_subgraph_valid_on_random_subset(self, data):
        n, edges = data
        g = graph_from_edges(n, np.array(edges).reshape(-1, 2))
        subset = np.arange(0, n, 2)
        sub, mapping = g.subgraph(subset)
        validate_csr(sub)
        assert sub.num_vertices == len(subset)
