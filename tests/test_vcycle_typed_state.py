"""The V-cycle's scalar kernels on typed views: mechanism and oracles.

``fm_refine``, ``rebalance``, ``_matching_fallback`` and
``greedy_graph_growing`` index ``memoryview``s of the graph's NumPy
arrays instead of boxing them into lists (or reading NumPy scalars);
FM, ``rebalance`` and graph growing keep one incrementally updated gain
per vertex, and the greedy matching tail reads HEM's per-edge spreads.
These tests pin *that*, not the speed it buys:

* FM's allocation peak per graph element stays under what one boxed
  copy of the CSR would cost;
* the earlier loops, kept verbatim in ``tests/oracles/vcycle_scalar``,
  give the same matchings and labels on float32-valued weights;
* a feasible projection costs ``rebalance`` no O(n + m) set-up;
* on arbitrary float64 weights — outside the integer/float32-valued
  domain where labels are bit-identical — the maintained gains do not
  drift from a from-scratch recomputation, and an FM pass that keeps
  no move leaves them bit for bit as it found them.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.refine as refine_mod
from repro.fuzz.generators import make_graph_case
from repro.graph import CSRGraph, graph_from_edges
from repro.graph.coarsen import _edge_spread, _matching_fallback
from repro.graph.initial import _growth_state, _grow, best_initial_bisection
from repro.graph.metrics import edge_cut
from repro.graph.refine import _degrees, _gains, fm_refine, rebalance
from tests.oracles import vcycle_scalar
from tests.test_graph_hotpaths import random_graph


def _rng(seed=0):
    return np.random.default_rng(seed)


def greedy_graph_growing(g, target_frac, rng):
    """One growth of :func:`best_initial_bisection`: its 0/1 labels."""
    return _grow(_growth_state(g, target_frac), rng)[0]


def float32_valued(g: CSRGraph) -> CSRGraph:
    """``g`` with its weights rounded through float32: values whose
    partial sums are exact in float64, the domain where the kept gains
    equal the oracles' bit for bit."""
    return CSRGraph(
        g.xadj,
        g.adjncy,
        vwgt=np.asarray(g.vwgt, dtype=np.float32),
        adjwgt=np.asarray(g.adjwgt, dtype=np.float32),
    )


def big_grid(side: int, weight: float) -> CSRGraph:
    idx = np.arange(side * side).reshape(side, side)
    edges = np.concatenate(
        [
            np.stack([idx[:-1].ravel(), idx[1:].ravel()], axis=1),
            np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
        ]
    )
    return graph_from_edges(
        side * side, edges, ewgt=np.full(len(edges), weight)
    )


class TestFmFootprint:
    """n = 90,000, m = 358,800, boundary 600, unit and weighted
    edges.  Boxing the CSR and six n-vectors per call cost 71.6 B per
    (n + m) on the unit grid, 95.7 B on the weighted one; typed views
    read 18.4 B on both, the pass-start snapshot included."""

    @pytest.mark.parametrize("weight", [1.0, 2.0])
    def test_peak_bytes_per_element(self, weight):
        side = 300
        g = big_grid(side, weight)
        n, m = g.num_vertices, len(g.adjncy)
        assert (n, m) == (90_000, 358_800)
        part = (np.arange(n) // side >= side // 2).astype(np.int32)
        g.edge_sources()  # the graph's own caches are not FM's state
        g.degrees()
        tracemalloc.start()
        try:
            fm_refine(g, part, rng=_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (n + m) <= 48.0


def spreads(g: CSRGraph, multi: bool) -> np.ndarray | None:
    """What ``heavy_edge_matching`` hands its greedy tail."""
    return _edge_spread(g.vwgt, g.edge_sources(), g.adjncy) if multi else None


class TestMatchingFallbackOracle:
    @staticmethod
    def both(g, seed, multi):
        """The fallback on the whole graph (every vertex a candidate),
        new and oracle, from the same generator state."""
        n = g.num_vertices
        new = np.arange(n, dtype=np.int64)
        _matching_fallback(g, new, np.arange(n), _rng(seed), spreads(g, multi))
        ref = np.arange(n, dtype=np.int64)
        vcycle_scalar._matching_fallback(g, ref, np.arange(n), _rng(seed), multi)
        return new, ref

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ncon=st.sampled_from([1, 4]),
        unit=st.booleans(),
        multi=st.booleans(),
    )
    def test_equal_matchings_wide_and_narrow(self, seed, ncon, unit, multi):
        g = random_graph(seed, n=90, ncon=ncon, unit_weights=unit)
        new, ref = self.both(float32_valued(g), seed, multi)
        np.testing.assert_array_equal(new, ref)
        np.testing.assert_array_equal(new[new], np.arange(90))

    def test_equal_weight_tie_goes_to_smaller_spread(self):
        """The ``w > best_w - 1e-12`` branch: vertex 0 sees 1 first,
        but 2 complements its weight vector, so 2 wins the tie."""
        vwgt = np.array(
            [[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 1], [1, 1, 1, 1]],
            dtype=np.float64,
        )
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)], vwgt=vwgt)
        match = np.arange(4, dtype=np.int64)
        _matching_fallback(g, match, np.array([0]), _rng(0), spreads(g, True))
        assert match.tolist() == [2, 1, 0, 3]
        match = np.arange(4, dtype=np.int64)
        vcycle_scalar._matching_fallback(g, match, np.array([0]), _rng(0), True)
        assert match.tolist() == [2, 1, 0, 3]
        # Without the multi-constraint rule the first heaviest edge wins.
        match = np.arange(4, dtype=np.int64)
        _matching_fallback(g, match, np.array([0]), _rng(0), None)
        assert match.tolist() == [1, 0, 2, 3]


class TestGraphGrowingOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ncon=st.sampled_from([1, 4]),
        unit=st.booleans(),
        frac=st.sampled_from([0.5, 0.3, 0.625]),
    )
    def test_equal_labels_wide_and_narrow(self, seed, ncon, unit, frac):
        g = random_graph(seed, n=70, ncon=ncon, unit_weights=unit)
        labels = [
            fn(float32_valued(g), frac, _rng(seed))
            for fn in (greedy_graph_growing, vcycle_scalar.greedy_graph_growing)
        ]
        assert labels[0].dtype == np.int32
        for other in labels[1:]:
            np.testing.assert_array_equal(labels[0], other)

    def test_disconnected_graph_jumps_like_the_oracle(self):
        """Frontier exhaustion draws from the generator: both versions
        must consume it identically."""
        edges = [(i, i + 1) for i in range(9)] + [
            (i, i + 1) for i in range(10, 19)
        ]
        g = graph_from_edges(20, edges)
        for seed in range(5):
            np.testing.assert_array_equal(
                greedy_graph_growing(g, 0.7, _rng(seed)),
                vcycle_scalar.greedy_graph_growing(g, 0.7, _rng(seed)),
            )


class TestRebalance:
    def test_feasible_input_costs_no_degrees(self, medium_grid, monkeypatch):
        calls = []
        monkeypatch.setattr(
            refine_mod,
            "_degrees",
            lambda g, part: calls.append(1) or _degrees(g, part),
        )
        n = medium_grid.num_vertices
        part = (np.arange(n) >= n // 2).astype(np.int32)
        out = rebalance(medium_grid, part.copy(), imbalance_tol=1.05)
        np.testing.assert_array_equal(out, part)
        assert calls == []
        # ... and an infeasible one builds them exactly once.
        skewed = (np.arange(n) >= n // 4).astype(np.int32)
        rebalance(medium_grid, skewed, imbalance_tol=1.05)
        assert calls == [1]

    @pytest.mark.parametrize("seed", range(40))
    def test_infeasible_equals_oracle_on_fuzz_corpus(self, seed):
        g = make_graph_case(_rng(seed)).graph
        if g.num_vertices < 2:
            return
        part0 = (_rng(seed).random(g.num_vertices) < 0.15).astype(np.int32)
        g = float32_valued(g)
        np.testing.assert_array_equal(
            rebalance(g, part0.copy(), imbalance_tol=1.05),
            vcycle_scalar.rebalance(g, part0.copy(), imbalance_tol=1.05),
        )

    def test_degrees_are_float_even_when_nothing_is_cut(self):
        """``np.bincount`` of an empty selection is int64 whatever the
        weights; the parent then truncated ``rebalance``'s fractional
        degree updates on an uncut start."""
        g = graph_from_edges(
            6, [(i, i + 1) for i in range(5)], ewgt=np.full(5, 0.5)
        )
        ideg, edeg = _degrees(g, np.zeros(6, dtype=np.int32))
        assert ideg.dtype == edeg.dtype == np.float64
        out = rebalance(g, np.zeros(6, dtype=np.int32), imbalance_tol=1.05)
        assert out.tolist() in ([1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1])


class TestWeightedDegrees:
    def test_cached_shared_and_width_independent(self):
        g = random_graph(3, n=60, ncon=2, unit_weights=False)
        wdeg = g.weighted_degrees()
        assert wdeg.dtype == np.float64
        np.testing.assert_array_equal(
            wdeg,
            [g.edge_weights(v).sum() for v in range(g.num_vertices)],
        )
        assert g.weighted_degrees() is wdeg
        assert g.with_vwgt(g.vwgt[:, :1]).weighted_degrees() is wdeg
        # No edge at all: float zeros, not bincount's int64.
        empty = graph_from_edges(3, [])
        assert empty.weighted_degrees().dtype == np.float64


oracle_axes = given(
    seed=st.integers(0, 10_000),
    ncon=st.sampled_from([1, 4]),
    unit=st.booleans(),
    frac=st.sampled_from([0.5, 0.3, 0.625]),
)


class TestFmRefineOracle:
    @settings(max_examples=30, deadline=None)
    @oracle_axes
    def test_equal_labels_wide_and_narrow(self, seed, ncon, unit, frac):
        """Unit and weighted edges alike, through FM's one queue; a
        random start is often infeasible, so the generic admissibility
        loop runs as well as the one-hot fast path."""
        g = random_graph(seed, n=120, ncon=ncon, unit_weights=unit)
        start = (_rng(seed + 1).random(g.num_vertices) >= frac).astype(
            np.int32
        )
        g = float32_valued(g)
        labels = [
            fn(g, start.copy(), target_frac=frac, rng=_rng(seed))
            for fn in (fm_refine, vcycle_scalar.fm_refine)
        ]
        for other in labels[1:]:
            np.testing.assert_array_equal(labels[0], other)


class TestBestInitialBisectionOracle:
    @settings(max_examples=30, deadline=None)
    @oracle_axes
    def test_equal_labels_and_draws(self, seed, ncon, unit, frac):
        g = random_graph(seed, n=70, ncon=ncon, unit_weights=unit)
        labels, states = [], []
        g = float32_valued(g)
        for fn in (best_initial_bisection, vcycle_scalar.best_initial_bisection):
            rng = _rng(seed)
            labels.append(fn(g, frac, rng, imbalance_tol=1.05))
            states.append(rng.bit_generator.state)
        assert labels[0].dtype == np.int32
        for other, state in zip(labels[1:], states[1:]):
            np.testing.assert_array_equal(labels[0], other)
            assert state == states[0]

    def test_disconnected_graph_like_the_oracle(self):
        """Every trial jumps across components, drawing from the
        generator; the cut and balance keys must rank them alike."""
        edges = [(i, i + 1) for i in range(9)] + [
            (i, i + 1) for i in range(10, 19)
        ]
        vwgt = np.zeros((20, 2))
        vwgt[::2, 0] = 1.0
        vwgt[1::2, 1] = 1.0
        g = graph_from_edges(20, edges, vwgt=vwgt)
        for seed in range(5):
            np.testing.assert_array_equal(
                best_initial_bisection(g, 0.7, _rng(seed)),
                vcycle_scalar.best_initial_bisection(g, 0.7, _rng(seed)),
            )


def float64_graph(seed: int, n: int = 90, ncon: int = 2) -> CSRGraph:
    """Edge weights spread over five decades, neither integer nor
    float32-valued: the ±2w updates round here."""
    rng = _rng(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(2 * n):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    ewgt = np.exp(rng.uniform(-6.0, 6.0, len(edges)))
    assert np.any(ewgt != ewgt.astype(np.float32))
    vwgt = rng.uniform(0.1, 3.0, (n, ncon))
    return graph_from_edges(n, sorted(edges), vwgt=vwgt, ewgt=ewgt)


def assert_no_drift(g: CSRGraph, kept: np.ndarray, part: np.ndarray, mask=None):
    """``kept`` within 1e-12 × weighted degree of a fresh recomputation."""
    fresh = _gains(g, part)
    wdeg = g.weighted_degrees()
    if mask is not None:
        kept, fresh, wdeg = kept[mask], fresh[mask], wdeg[mask]
    assert np.all(np.abs(kept - fresh) <= 1e-12 * wdeg)


class TestGainsDoNotDrift:
    """Arbitrary float64 weights, after a full run of each kernel."""

    @staticmethod
    def kept_gains(monkeypatch) -> list[np.ndarray]:
        """Every gain array the kernels build through ``_gains``."""
        kept: list[np.ndarray] = []
        real = refine_mod._gains
        monkeypatch.setattr(
            refine_mod,
            "_gains",
            lambda g, part: kept.append(real(g, part)) or kept[-1],
        )
        return kept

    @pytest.mark.parametrize("seed", range(6))
    def test_fm_refine(self, seed, monkeypatch):
        kept = self.kept_gains(monkeypatch)
        g = float64_graph(seed)
        start = (_rng(seed + 1).random(g.num_vertices) < 0.5).astype(np.int32)
        out = fm_refine(g, start, rng=_rng(seed), check_cut=True)
        assert len(kept) == 1
        assert_no_drift(g, kept[0], out)

    @pytest.mark.parametrize("seed", range(20))
    def test_fm_pass_keeping_no_move_restores_gains(self, seed, monkeypatch):
        """On these seeds a pass from FM's own output keeps no move, so
        the labels and every gain must come back bit for bit — which
        undoing each move's ``±2w`` does not give on these weights."""
        g = float64_graph(seed)
        start = (_rng(seed + 1).random(g.num_vertices) < 0.5).astype(np.int32)
        out = fm_refine(g, start, rng=_rng(seed))
        before = out.copy()
        fresh = _gains(g, before)
        kept = self.kept_gains(monkeypatch)
        fm_refine(g, out, rng=_rng(seed), max_passes=1)
        np.testing.assert_array_equal(out, before)
        assert len(kept) == 1
        assert kept[0].tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_rebalance(self, seed, monkeypatch):
        kept = self.kept_gains(monkeypatch)
        g = float64_graph(seed)
        start = (_rng(seed + 1).random(g.num_vertices) < 0.15).astype(np.int32)
        out = rebalance(g, start, imbalance_tol=1.05)
        assert len(kept) == 1
        assert_no_drift(g, kept[0], out)

    @pytest.mark.parametrize("seed", range(6))
    def test_graph_growing(self, seed):
        """The gains of the vertices left in part 1 (edges into part 0
        minus edges into part 1: external minus internal), and the
        cut."""
        g = float64_graph(seed)
        part, gain, cut = _grow(_growth_state(g, 0.5), _rng(seed))
        assert_no_drift(g, np.asarray(gain), part, mask=part == 1)
        assert abs(cut - edge_cut(g, part)) <= 1e-12 * (g.adjwgt.sum() / 2)
