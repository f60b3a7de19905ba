"""Tests for partition connectivity post-processing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    graph_from_edges,
    imbalance,
    part_components,
    parts_connected,
    reconnect_parts,
)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestPartComponents:
    def test_connected_part_single_component(self):
        g = path_graph(6)
        part = np.array([0, 0, 0, 1, 1, 1], dtype=np.int32)
        comps = part_components(g, part, 2)
        assert len(comps[0]) == 1
        assert len(comps[1]) == 1

    def test_fragmented_part_detected(self):
        g = path_graph(6)
        # Part 0 = {0, 1, 4, 5} → two components.
        part = np.array([0, 0, 1, 1, 0, 0], dtype=np.int32)
        comps = part_components(g, part, 2)
        assert len(comps[0]) == 2
        assert len(comps[1]) == 1

    def test_dominant_component_first(self):
        g = path_graph(7)
        part = np.array([0, 0, 0, 1, 0, 0, 1], dtype=np.int32)
        comps = part_components(g, part, 2)
        # Part 0's components: {0,1,2} (size 3) and {4,5} (size 2).
        assert len(comps[0][0]) == 3
        assert len(comps[0][1]) == 2

    def test_empty_part(self):
        g = path_graph(3)
        part = np.zeros(3, dtype=np.int32)
        comps = part_components(g, part, 2)
        assert comps[1] == []


class TestReconnect:
    def test_repairs_simple_fragment(self):
        g = path_graph(10)
        # Part 0's stray component {9} is 1/7 of its weight.
        part = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 0], dtype=np.int32)
        res = reconnect_parts(g, part, 2, imbalance_tol=2.5)
        assert res.fragments_before == 1
        assert res.fragments_after == 0
        assert np.all(parts_connected(g, res.part, 2))

    def test_no_op_on_connected_partition(self):
        g = path_graph(8)
        part = np.array([0] * 4 + [1] * 4, dtype=np.int32)
        res = reconnect_parts(g, part, 2)
        assert res.moved_vertices == 0
        np.testing.assert_array_equal(res.part, part)

    def test_respects_balance_ceiling(self):
        """A fragment whose absorption would blow the tolerance stays."""
        g = path_graph(10)
        part = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 0], dtype=np.int32)
        # Moving {9} to part 1 makes it 7/10 → imbalance 1.4; with a
        # tight ceiling the move is refused.
        res = reconnect_parts(g, part, 2, imbalance_tol=1.05)
        assert res.fragments_after == res.fragments_before

    def test_never_moves_dominant_half(self):
        """MAX_FRAGMENT_FRACTION guards big 'fragments'."""
        g = path_graph(8)
        part = np.array([0, 0, 0, 0, 1, 0, 0, 0], dtype=np.int32)
        # Part 0's second component {5,6,7} is 3/7 of its weight.
        res = reconnect_parts(g, part, 2, imbalance_tol=10.0)
        assert res.moved_vertices == 0

    def test_mc_tl_fragments_reduced(self, small_cube_mesh, small_cube_tau):
        """On a real MC_TL partition the pass reduces fragments while
        keeping imbalance bounded."""
        from repro.mesh import mesh_to_dual_graph
        from repro.partitioning import mc_tl_partition
        from repro.partitioning.strategies import _level_indicator_matrix

        part = mc_tl_partition(small_cube_mesh, small_cube_tau, 4, seed=0)
        g = mesh_to_dual_graph(
            small_cube_mesh,
            vwgt=_level_indicator_matrix(small_cube_tau),
        )
        res = reconnect_parts(g, part, 4, imbalance_tol=1.4)
        assert res.fragments_after <= res.fragments_before
        assert res.imbalance_after <= 1.4 + 1e-9
        # Moving whole fragments toward their strongest neighbour can
        # only reduce (or keep) the cut.
        assert res.cut_after <= res.cut_before + 1e-9

    def test_statistics_consistent(self):
        g = path_graph(6)
        part = np.array([0, 0, 1, 1, 0, 0], dtype=np.int32)
        res = reconnect_parts(g, part, 2, imbalance_tol=2.5)
        assert res.imbalance_after == pytest.approx(
            float(imbalance(g, res.part, 2).max())
        )
