"""Cross-validation against networkx as an independent oracle.

The graph substrate (CSR structure, cut metrics, components) and the
DAG analytics (topological order, critical path) are re-checked here
against networkx implementations on randomized inputs.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    connected_components,
    edge_cut,
    graph_from_edges,
    part_components,
    parts_connected,
)
from repro.taskgraph import TaskDAG
from repro.taskgraph.task import TaskArrays


def random_edge_list(rng, n, m):
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    return sorted(edges)


class TestGraphOracle:
    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_edge_cut_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        m = int(rng.integers(3, min(40, n * (n - 1) // 2)))
        edges = random_edge_list(rng, n, m)
        g = graph_from_edges(n, np.array(edges))
        part = rng.integers(0, 3, n)

        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        blocks = [np.flatnonzero(part == p) for p in range(3)]
        nx_cut = sum(
            nx.cut_size(G, blocks[a], blocks[b])
            for a in range(3)
            for b in range(a + 1, 3)
        )
        assert edge_cut(g, part) == pytest.approx(nx_cut)

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_components_match_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        m = int(rng.integers(2, min(35, n * (n - 1) // 2)))
        edges = random_edge_list(rng, n, m)
        # Small integer weights, so components tie on weight.
        vwgt = rng.integers(1, 3, n).astype(np.float64)
        g = graph_from_edges(n, np.array(edges), vwgt=vwgt)
        part = rng.integers(0, 2, n).astype(np.int32)

        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        comps = part_components(g, part, 2)
        for p in range(2):
            members = [v for v in range(n) if part[v] == p]
            sub = G.subgraph(members)
            expected = nx.number_connected_components(sub) if members else 0
            assert len(comps[p]) == expected
            # Dominant first: heaviest, ties to the smallest vertex.
            want = sorted(
                (sorted(c) for c in nx.connected_components(sub)),
                key=lambda c: (-vwgt[c].sum(), c[0]),
            )
            assert [c.tolist() for c in comps[p]] == want
        np.testing.assert_array_equal(
            parts_connected(g, part, 2),
            [len(comps[p]) <= 1 for p in range(2)],
        )

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_connected_components_match_networkx(self, seed):
        # Sparse random graphs: several components and isolated
        # vertices (vertices no edge touches) on most draws.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, n)) if n > 1 else 0
        edges = random_edge_list(rng, n, m)
        g = graph_from_edges(n, np.array(edges).reshape(-1, 2))
        labels, ncomp = connected_components(g)

        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        want = sorted(nx.connected_components(G), key=min)
        assert ncomp == len(want)
        # Same components, numbered in order of their smallest vertex.
        for c, members in enumerate(want):
            np.testing.assert_array_equal(
                np.flatnonzero(labels == c), sorted(members)
            )


def _dag_from_nx(G, costs):
    n = G.number_of_nodes()
    tasks = TaskArrays(
        subiteration=np.zeros(n, dtype=np.int32),
        phase_tau=np.zeros(n, dtype=np.int32),
        obj_type=np.zeros(n, dtype=np.int8),
        locality=np.zeros(n, dtype=np.int8),
        domain=np.zeros(n, dtype=np.int32),
        process=np.zeros(n, dtype=np.int32),
        num_objects=np.ones(n, dtype=np.int64),
        cost=np.asarray(costs, dtype=np.float64),
    )
    edges = np.array(list(G.edges()), dtype=np.int64).reshape(-1, 2)
    return TaskDAG(tasks=tasks, edges=edges)


class TestDAGOracle:
    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=25, deadline=None)
    def test_critical_path_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        G = nx.gnp_random_graph(n, 0.3, seed=seed, directed=True)
        G = nx.DiGraph(
            (u, v) for (u, v) in G.edges() if u < v
        )  # forward edges only ⇒ acyclic
        G.add_nodes_from(range(n))
        costs = rng.uniform(0.5, 5.0, n)
        dag = _dag_from_nx(G, costs)
        cp, _ = dag.critical_path()

        # networkx longest path with node weights via edge-weight trick:
        H = nx.DiGraph()
        H.add_nodes_from(G.nodes())
        for u, v in G.edges():
            H.add_edge(u, v, w=costs[u])
        best = 0.0
        # longest path ending at each sink: dynamic program via
        # topological order (independent implementation).
        dist = {v: costs[v] for v in H.nodes()}
        for v in nx.topological_sort(H):
            for u in H.predecessors(v):
                dist[v] = max(dist[v], dist[u] + costs[v])
        best = max(dist.values()) if dist else 0.0
        assert cp == pytest.approx(best)

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=20, deadline=None)
    def test_topological_order_agrees_with_networkx_validity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        G = nx.gnp_random_graph(n, 0.25, seed=seed, directed=True)
        G = nx.DiGraph((u, v) for (u, v) in G.edges() if u < v)
        G.add_nodes_from(range(n))
        dag = _dag_from_nx(G, np.ones(n))
        order = dag.topological_order()
        pos = {int(v): i for i, v in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in G.edges())
        assert sorted(pos) == list(range(n))
