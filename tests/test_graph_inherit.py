"""Tests for the inherited coarsening hierarchy of the bisection tree.

The root's children and grandchildren on large graphs coarsen along
their parent's hierarchy restricted to their own side of the cut
(``graph/bisect.py::coarsen``), and heavy-edge matching runs there only
where an inherited level stalls or the inherited levels run out above
the coarsening target; every other node matches afresh.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.bisect as bisect_mod
import repro.graph.coarsen as coarsen_mod
import repro.graph.partition as partition_mod
from repro.graph.bisect import coarsen, inherit_levels, multilevel_bisect
from repro.graph.coarsen import contract, inherited_matching
from repro.graph.csr import CSRGraph, graph_from_edges
from repro.graph.partition import _repair_split, recursive_bisection

def _rng(seed=0):
    return np.random.default_rng(seed)


def _composed(levels, depth: int, n: int) -> np.ndarray:
    """Every fine vertex's coarse vertex after ``depth`` levels."""
    cmap = np.arange(n)
    for lvl in levels[:depth]:
        cmap = lvl.cmap[cmap]
    return cmap


def _coarsen_counting_fresh(g, rng, **kw):
    """``coarsen`` plus the number of its levels heavy-edge matching
    built (fresh levels are always the tail of a hierarchy)."""
    fresh = []
    real = bisect_mod.coarsen_once

    def spy(cur, r):
        lvl = real(cur, r)
        fresh.append(lvl.graph.num_vertices <= 0.95 * cur.num_vertices)
        return lvl

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bisect_mod, "coarsen_once", spy)
        levels = coarsen(g, rng, **kw)
    return levels, sum(fresh)


@st.composite
def weighted_graphs(draw):
    """Grids with random chords, random edge weights and one to three
    random (or indicator, as MC_TL's) constraint columns."""
    nx = draw(st.integers(min_value=16, max_value=40))
    ny = draw(st.integers(min_value=16, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    ncon = draw(st.integers(min_value=1, max_value=3))
    indicator = draw(st.booleans())
    rng = np.random.default_rng(seed)
    n = nx * ny
    ids = np.arange(n).reshape(nx, ny)
    edges = [
        np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        rng.integers(0, n, (n // 10, 2)),
    ]
    edges = np.concatenate(edges)
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    g = graph_from_edges(n, edges)
    if indicator:
        vwgt = np.zeros((n, ncon))
        vwgt[np.arange(n), rng.integers(0, ncon, n)] = 1.0
    else:
        vwgt = rng.integers(1, 5, (n, ncon)).astype(np.float64)
    # Symmetric edge weights: one draw per undirected edge.
    src = g.edge_sources()
    lo, hi = np.minimum(src, g.adjncy), np.maximum(src, g.adjncy)
    adjwgt = (1 + (lo * 7919 + hi * 104729 + seed) % 4).astype(np.float64)
    return CSRGraph(g.xadj, g.adjncy, vwgt=vwgt, adjwgt=adjwgt), seed


class TestInheritedLevels:
    @given(weighted_graphs(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_inherited_coarse_vertices_lie_in_one_parent_vertex(
        self, graph_seed, repaired
    ):
        g, seed = graph_seed
        n = g.num_vertices
        rng = _rng(seed)
        levels = coarsen(g, rng)
        labels = multilevel_bisect(g, 0.5, rng, levels=levels)
        left, right = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
        if repaired:
            # A one-vertex side asked to host four parts: the repair
            # splits the merged list, so the sides no longer follow
            # the cut.
            left, right = _repair_split(
                left[:1], np.concatenate([right, left[1:]]), 4, 1
            )
        for side in (left, right):
            sub, _ = g.subgraph(side)
            child, fresh = _coarsen_counting_fresh(
                sub,
                _rng(seed + 1),
                inherit=inherit_levels(levels, side),
            )
            inherited = len(child) - fresh
            assert inherited <= len(levels)
            for depth in range(1, inherited + 1):
                mine = _composed(child, depth, len(side))
                theirs = _composed(levels, depth, n)[side]
                # One parent coarse vertex per child coarse vertex, and
                # one child coarse vertex per parent coarse vertex the
                # side touches: the parent's hierarchy, restricted.
                pairs = np.unique(np.stack([mine, theirs]), axis=1)
                assert pairs.shape[1] == mine.max() + 1
                assert pairs.shape[1] == len(np.unique(theirs))
            for lvl in child:
                np.testing.assert_allclose(
                    lvl.graph.total_vwgt(), sub.total_vwgt()
                )

    def test_inherited_pairs_are_the_keys_shared(self):
        key = np.array([4, 0, 4, 2, 0, 7])
        np.testing.assert_array_equal(
            inherited_matching(key), [2, 4, 0, 3, 1, 5]
        )

    def test_stalled_inherited_level_hands_over_to_matching(self, medium_grid):
        # Every vertex its own parent coarse vertex: the inherited
        # level cannot shrink, draws nothing from the generator, and
        # fresh matching builds the hierarchy it would have built.
        n = medium_grid.num_vertices
        got = coarsen(medium_grid, _rng(5), inherit=[np.arange(n)])
        want = coarsen(medium_grid, _rng(5))
        assert len(got) == len(want) > 0
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.cmap, b.cmap)

    def test_matching_takes_over_where_inherited_levels_run_out(
        self, medium_grid
    ):
        parent = coarsen(medium_grid, _rng(1))
        side = np.arange(medium_grid.num_vertices // 2)
        sub, _ = medium_grid.subgraph(side)
        inherit = inherit_levels(parent[:1], side)
        child, fresh = _coarsen_counting_fresh(
            sub, _rng(2), inherit=inherit
        )
        first = contract(sub, inherited_matching(inherit[0]))
        np.testing.assert_array_equal(child[0].cmap, first.cmap)
        assert fresh == len(child) - 1 > 0
        assert child[-1].graph.num_vertices <= 64


@pytest.mark.parametrize("min_vertices", [None, 1_024])
def test_matching_runs_where_nodes_match_afresh(monkeypatch, min_vertices):
    """On a connected registry dual (22,972 vertices) at 16 parts, the
    root's children and grandchildren at or above the size floor
    inherit and run heavy-edge matching only on levels their hierarchy
    could not supply (none on this graph); the root, smaller nodes and
    the nodes three levels down match afresh."""
    from repro.mesh.dual import mesh_to_dual_graph
    from repro.pipeline import MeshStage
    from repro.pipeline.registry import get_scenario

    sc = get_scenario("characteristics")
    g = mesh_to_dual_graph(MeshStage.compute(sc.mesh))
    nodes = []  # per tree node: [depth, vertices, inherit, events]
    real_node = partition_mod._tree_node
    real_hem = coarsen_mod.heavy_edge_matching
    real_contract = bisect_mod.contract

    def spy_node(source, vertices, first, k, depth, rng, inherit, tol):
        n = source.num_vertices if vertices is None else len(vertices)
        nodes.append([depth, n, inherit, []])
        return real_node(source, vertices, first, k, depth, rng, inherit, tol)

    def spy_hem(cur, *args, **kw):
        nodes[-1][3].append("hem")
        return real_hem(cur, *args, **kw)

    def spy_contract(cur, match):
        lvl = real_contract(cur, match)
        stalled = lvl.graph.num_vertices > 0.95 * cur.num_vertices
        nodes[-1][3].append("stall" if stalled else "inherit")
        return lvl

    with monkeypatch.context() as mp:
        if min_vertices is not None:
            mp.setattr(partition_mod, "_INHERIT_MIN_VERTICES", min_vertices)
        floor = partition_mod._INHERIT_MIN_VERTICES
        mp.setattr(partition_mod, "_tree_node", spy_node)
        mp.setattr(coarsen_mod, "heavy_edge_matching", spy_hem)
        mp.setattr(bisect_mod, "contract", spy_contract)
        recursive_bisection(g, 16, np.random.default_rng(1), n_jobs=1)

    assert len(nodes) == 15  # a 16-leaf tree has 15 inner nodes
    inheriting = 0
    for depth, n, inherit, events in nodes:
        assert (inherit is not None) == (
            1 <= depth <= partition_mod._INHERIT_DEPTH and n >= floor
        )
        if inherit is None:
            # Matched afresh: every level is heavy-edge matching.
            assert events and set(events) == {"hem"}
            continue
        inheriting += 1
        n_hem = events.count("hem")
        if n_hem:
            # Matching only after a stall or past the inherited levels.
            assert "stall" in events or events.count("inherit") == len(inherit)
            assert events.index("hem") == len(events) - n_hem
        assert n_hem == 0
    # The default floor passes the hierarchy to the root's two children
    # (11.5k vertices) only; the lower one to its grandchildren too.
    assert inheriting == (2 if min_vertices is None else 6)
