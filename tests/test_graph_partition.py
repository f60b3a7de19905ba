"""Tests for initial bisection, FM refinement and the partition
drivers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.partition as partition_mod
from repro.graph import (
    edge_cut,
    graph_from_edges,
    imbalance,
    part_weights,
    partition_graph,
    parts_connected,
)
from repro.graph.csr import CSRGraph
from repro.graph.initial import best_initial_bisection, greedy_graph_growing
from repro.graph.partition import recursive_bisection
from repro.graph.refine import fm_refine, rebalance


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestGreedyGrowing:
    def test_bisection_covers_graph(self, small_grid):
        part = greedy_graph_growing(small_grid, 0.5, _rng())
        assert set(np.unique(part)) == {0, 1}

    def test_reaches_target_weight(self, small_grid):
        part = greedy_graph_growing(small_grid, 0.5, _rng())
        w = part_weights(small_grid, part, 2)
        total = small_grid.total_vwgt()
        assert w[0, 0] >= 0.5 * total[0] - 1  # may overshoot, not undershoot

    def test_respects_seed_vertex(self, small_grid):
        part = greedy_graph_growing(small_grid, 0.3, _rng(), seed_vertex=0)
        assert part[0] == 0

    def test_handles_disconnected_graph(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        part = greedy_graph_growing(g, 0.5, _rng())
        assert set(np.unique(part)) <= {0, 1}
        w = part_weights(g, part, 2)
        assert w[0, 0] >= 3  # reached half


class TestFMRefine:
    def test_improves_bad_bisection(self, small_grid):
        n = small_grid.num_vertices
        rng = _rng(3)
        part = rng.integers(0, 2, n).astype(np.int32)
        before = edge_cut(small_grid, part)
        fm_refine(small_grid, part, rng=rng)
        after = edge_cut(small_grid, part)
        assert after < before

    def test_preserves_feasibility(self, small_grid):
        n = small_grid.num_vertices
        part = (np.arange(n) % 2).astype(np.int32)
        fm_refine(small_grid, part, imbalance_tol=1.05)
        imb = imbalance(small_grid, part, 2)
        assert imb.max() <= 1.10  # small slack for discreteness

    def test_noop_on_perfect_partition(self):
        # Two cliques joined by one edge, already optimally split.
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
        edges += [(0, 4)]
        g = graph_from_edges(8, np.array(edges))
        part = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32)
        fm_refine(g, part)
        assert edge_cut(g, part) == 1.0

    def test_empty_graph(self):
        g = graph_from_edges(0, np.empty((0, 2)))
        part = np.empty(0, dtype=np.int32)
        fm_refine(g, part)  # must not crash


class TestRebalance:
    def test_repairs_gross_imbalance(self, small_grid):
        n = small_grid.num_vertices
        part = np.zeros(n, dtype=np.int32)  # everything in part 0
        rebalance(small_grid, part, imbalance_tol=1.05)
        imb = imbalance(small_grid, part, 2)
        assert imb.max() <= 1.06

    def test_multiconstraint_plateau_case(self):
        """Two constraints violated simultaneously must both be fixed
        (regression: early implementations stalled when moving weight
        for one constraint did not lower the global max)."""
        # 4x4 grid, two constraints split spatially.
        edges = []
        for i in range(4):
            for j in range(4):
                v = i * 4 + j
                if i + 1 < 4:
                    edges.append((v, v + 4))
                if j + 1 < 4:
                    edges.append((v, v + 1))
        vw = np.zeros((16, 2))
        vw[:8, 0] = 1.0
        vw[8:, 1] = 1.0
        g = graph_from_edges(16, np.array(edges), vwgt=vw)
        part = np.zeros(16, dtype=np.int32)
        rebalance(g, part, imbalance_tol=1.1)
        imb = imbalance(g, part, 2)
        assert imb.max() <= 1.3  # from 2.0 down to near balance

    def test_terminates_on_unrepairable(self):
        # Single giant vertex: no move can balance; must not loop.
        g = graph_from_edges(2, [(0, 1)], vwgt=np.array([10.0, 1.0]))
        part = np.array([0, 1], dtype=np.int32)
        rebalance(g, part, imbalance_tol=1.05)


class TestPartitionGraph:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_all_parts_nonempty(self, medium_grid, k):
        res = partition_graph(medium_grid, k, seed=1)
        assert set(np.unique(res.part)) == set(range(k))

    def test_single_part(self, small_grid):
        res = partition_graph(small_grid, 1)
        assert np.all(res.part == 0)
        assert res.cut == 0.0

    def test_balance_single_constraint(self, medium_grid):
        res = partition_graph(medium_grid, 8, seed=0)
        assert res.imbalance.max() < 1.15

    def test_cut_reasonable_on_grid(self, medium_grid):
        # 40x40 grid into 4 parts: quadrant cut is 80; accept ≤ 2×.
        res = partition_graph(medium_grid, 4, seed=0)
        assert res.cut <= 160

    def test_multiconstraint_balances_every_class(self, medium_grid):
        n = medium_grid.num_vertices
        cls = np.arange(n) * 3 // n
        vw = np.zeros((n, 3))
        vw[np.arange(n), cls] = 1.0
        g = medium_grid.with_vwgt(vw)
        res = partition_graph(g, 4, seed=0)
        assert res.imbalance.max() < 1.25

    def test_deterministic_given_seed(self, small_grid):
        r1 = partition_graph(small_grid, 4, seed=7)
        r2 = partition_graph(small_grid, 4, seed=7)
        np.testing.assert_array_equal(r1.part, r2.part)

    def test_too_many_parts_raises(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="non-empty"):
            partition_graph(g, 5)

    def test_nparts_zero_raises(self, small_grid):
        with pytest.raises(ValueError):
            partition_graph(small_grid, 0)

    def test_single_constraint_parts_mostly_connected(self, medium_grid):
        res = partition_graph(medium_grid, 4, seed=0)
        conn = parts_connected(medium_grid, res.part, 4)
        assert conn.sum() >= 3  # geometric graph: RB keeps parts compact


class TestRootBisectedInPlace:
    """The root of the bisection tree is all of ``g``: it is bisected
    on ``g`` itself, not on an identity ``subgraph`` copy."""

    def test_no_identity_subgraph_and_same_labels(
        self, medium_grid, monkeypatch
    ):
        ids = np.arange(medium_grid.num_vertices)
        vwgt = np.zeros((len(ids), 3))
        vwgt[ids, ids % 3] = 1.0
        g = CSRGraph(
            medium_grid.xadj,
            medium_grid.adjncy,
            vwgt=vwgt,
            adjwgt=medium_grid.adjwgt,
        )
        n = g.num_vertices

        sizes, bisected = [], []
        real_subgraph = CSRGraph.subgraph
        real_bisect = partition_mod.multilevel_bisect

        def spy_subgraph(self, vertices):
            sizes.append(len(vertices))
            return real_subgraph(self, vertices)

        def spy_bisect(sub, *args, **kwargs):
            bisected.append(sub is g)
            return real_bisect(sub, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(CSRGraph, "subgraph", spy_subgraph)
            mp.setattr(partition_mod, "multilevel_bisect", spy_bisect)
            part = recursive_bisection(g, 5, _rng(3), n_jobs=1)
        assert len(sizes) == 3 and max(sizes) < n  # 4 bisections, root bare
        assert bisected == [True, False, False, False]

        # The copying path: hand the root to the V-cycle as the
        # identity subgraph instead.
        def copying_bisect(sub, *args, **kwargs):
            if sub is g:
                sub, _ = g.subgraph(np.arange(n, dtype=np.int64))
            return real_bisect(sub, *args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(partition_mod, "multilevel_bisect", copying_bisect)
            want = recursive_bisection(g, 5, _rng(3), n_jobs=1)
        np.testing.assert_array_equal(part, want)
        assert part.dtype == np.int32
        assert set(np.unique(part)) == set(range(5))


@pytest.fixture(scope="module")
def mc_dual():
    """1,024-cell uniform dual with three interleaved constraints."""
    from repro.mesh.dual import mesh_to_dual_graph
    from repro.mesh.generators import uniform_mesh

    g = mesh_to_dual_graph(uniform_mesh(depth=5))
    ids = np.arange(g.num_vertices)
    vwgt = np.zeros((len(ids), 3))
    vwgt[ids, (ids // 7) % 3] = 1.0
    return CSRGraph(g.xadj, g.adjncy, vwgt=vwgt, adjwgt=g.adjwgt)


class TestOneSeedingRule:
    """Every bisection-tree node owns a generator spawned from its
    parent's and inherits its parent's coarsening hierarchy, on every
    execution path: the labels are a function of the seed alone."""

    @pytest.mark.parametrize("nparts", [8, 64])
    def test_labels_do_not_depend_on_workers_or_executor(
        self, mc_dual, nparts
    ):
        want = partition_graph(mc_dual, nparts, seed=11, n_jobs=1).part
        # "auto" runs this 1,024-vertex graph inline.
        for n_jobs in (1, 2, 3):
            for executor in ("auto", "process"):
                got = partition_graph(
                    mc_dual, nparts, seed=11, n_jobs=n_jobs,
                    executor=executor,
                ).part
                np.testing.assert_array_equal(got, want)
        # The thread leg is gone: one pool, of forked processes.
        with pytest.raises(ValueError, match="executor"):
            partition_graph(mc_dual, nparts, n_jobs=2, executor="thread")

    def test_power_of_two_parts_are_prefixes_of_one_tree(self):
        # k0/k is 1/2 at every node and the per-level tolerance is the
        # 1.01 floor from 32 parts on, so a 2**j tree is the 256-way
        # tree cut at depth j.
        from repro.mesh.dual import mesh_to_dual_graph
        from repro.mesh.generators import uniform_mesh

        g = mesh_to_dual_graph(uniform_mesh(depth=6))
        deepest = partition_graph(g, 256, seed=2, fallback=False)
        assert deepest.provenance == "primary"
        for j in (5, 6, 7):
            res = partition_graph(g, 2**j, seed=2, fallback=False)
            np.testing.assert_array_equal(res.part, deepest.part >> (8 - j))


class TestPartitionProperties:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_partition_is_total_and_balanced(self, k, seed):
        # Build a fresh grid here (hypothesis can't take fixtures).
        edges = []
        nx = ny = 12
        for i in range(nx):
            for j in range(ny):
                v = i * ny + j
                if i + 1 < nx:
                    edges.append((v, v + ny))
                if j + 1 < ny:
                    edges.append((v, v + 1))
        g = graph_from_edges(nx * ny, np.array(edges))
        res = partition_graph(g, k, seed=seed)
        assert len(res.part) == g.num_vertices
        assert set(np.unique(res.part)) == set(range(k))
        assert res.imbalance.max() < 1.6
