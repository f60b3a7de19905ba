"""Property tests for the partitioner fast paths vs the seed reference.

The vectorized :func:`heavy_edge_matching` and incremental-gain
:func:`fm_refine` must not change *what* the partitioner computes, only
how fast — the seed implementations are preserved verbatim in
:mod:`repro.graph.reference` and used here as oracles, both on the
kernels directly (random graphs, 1–4 constraints) and end-to-end by
monkeypatching them into the full multilevel pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.bisect as bisect_mod
import repro.graph.coarsen as coarsen_mod
from repro.graph import CSRGraph, graph_from_edges
from repro.graph.coarsen import heavy_edge_matching
from repro.graph.contracts import check_partition_contract
from repro.graph.metrics import edge_cut, imbalance
from repro.graph.partition import partition_graph
from repro.graph.reference import fm_refine_ref, heavy_edge_matching_ref
from repro.graph.refine import fm_refine
from repro.mesh import cylinder_mesh
from repro.mesh.dual import mesh_to_dual_graph
from repro.temporal import levels_from_depth


def _rng(seed=0):
    return np.random.default_rng(seed)


def random_graph(
    seed: int, n: int = 150, ncon: int = 1, unit_weights: bool = True
) -> CSRGraph:
    """A connected random graph: a Hamiltonian path plus random chords.

    ``unit_weights=True`` exercises the FM bucket-queue fast path,
    ``False`` the general lazy-heap path.  Constraint vectors are
    one-hot for even seeds (the MC_TL shape, exercising the one-hot
    balance fast path) and dense random for odd seeds.
    """
    rng = _rng(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(2 * n):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = np.array(sorted(edges))
    ewgt = (
        np.ones(len(edges))
        if unit_weights
        else rng.integers(1, 10, len(edges)).astype(float)
    )
    if ncon == 1:
        vwgt = None
    elif seed % 2 == 0:
        vwgt = np.zeros((n, ncon))
        vwgt[np.arange(n), rng.integers(0, ncon, n)] = 1.0
    else:
        vwgt = rng.uniform(0.5, 2.0, (n, ncon))
    return graph_from_edges(n, edges, vwgt=vwgt, ewgt=ewgt)


class TestMatchingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ncon=st.integers(1, 4),
        unit=st.booleans(),
    )
    def test_symmetric_adjacent_deterministic(self, seed, ncon, unit):
        g = random_graph(seed, n=80, ncon=ncon, unit_weights=unit)
        match = heavy_edge_matching(g, _rng(seed))
        # Involution: matching is symmetric.
        np.testing.assert_array_equal(match[match], np.arange(len(match)))
        # Matched pairs share an edge.
        for v in np.flatnonzero(match != np.arange(len(match))):
            assert match[v] in g.neighbors(v)
        # Deterministic for a fixed rng seed.
        np.testing.assert_array_equal(
            match, heavy_edge_matching(g, _rng(seed))
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), ncon=st.integers(1, 4))
    def test_matching_weight_comparable_to_seed(self, seed, ncon):
        # The vectorized HEM resolves proposals in rounds rather than
        # sequentially, so the mate arrays differ from the seed's — but
        # the matching it finds must be of comparable total weight.
        g = random_graph(seed, n=80, ncon=ncon, unit_weights=False)

        def matching_weight(match):
            src = g.edge_sources()
            sel = match[src] == g.adjncy
            return float(g.adjwgt[sel].sum()) / 2.0

        w_fast = matching_weight(heavy_edge_matching(g, _rng(seed)))
        w_ref = matching_weight(heavy_edge_matching_ref(g, _rng(seed)))
        assert w_fast >= 0.8 * w_ref


def _half_split(g: CSRGraph, seed: int) -> np.ndarray:
    """A balanced-but-ragged starting bisection."""
    rng = _rng(seed)
    part = np.zeros(g.num_vertices, dtype=np.int64)
    part[rng.permutation(g.num_vertices)[: g.num_vertices // 2]] = 1
    return part


class TestFMProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ncon=st.integers(1, 4),
        unit=st.booleans(),
    )
    def test_invariants_vs_seed_reference(self, seed, ncon, unit):
        # The incremental-gain FM may rebuild its boundary worklist in
        # a different order than the seed on later passes, so the exact
        # move trajectory can diverge and per-example cuts scatter a
        # few percent either way (parity is asserted in aggregate
        # below) — but balance must never loosen past the seed's, the
        # incremental cut must validate, and reruns must be identical.
        g = random_graph(seed, n=150, ncon=ncon, unit_weights=unit)
        p_fast = _half_split(g, seed)
        p_ref = p_fast.copy()
        fm_refine(g, p_fast, rng=_rng(seed + 1), check_cut=True)
        fm_refine_ref(g, p_ref, rng=_rng(seed + 1))
        bound = max(1.05, imbalance(g, p_ref, 2).max())
        assert imbalance(g, p_fast, 2).max() <= bound + 1e-9
        # Deterministic: a repeat run takes the identical trajectory.
        p_again = _half_split(g, seed)
        fm_refine(g, p_again, rng=_rng(seed + 1))
        np.testing.assert_array_equal(p_fast, p_again)

    def test_cut_parity_with_seed_reference_mean(self):
        # Fixed seed set (deterministic, no flake): across graph
        # shapes and constraint counts the fast FM's cuts are
        # statistically indistinguishable from the seed's (measured
        # mean ratio 1.0002, worst 1.0066).
        ratios = []
        for seed in range(30):
            g = random_graph(
                seed,
                n=150,
                ncon=seed % 4 + 1,
                unit_weights=bool(seed % 2),
            )
            p_fast = _half_split(g, seed)
            p_ref = p_fast.copy()
            fm_refine(g, p_fast, rng=_rng(seed + 1), check_cut=True)
            fm_refine_ref(g, p_ref, rng=_rng(seed + 1))
            ratios.append(edge_cut(g, p_fast) / max(edge_cut(g, p_ref), 1))
        assert np.mean(ratios) <= 1.02
        assert max(ratios) <= 1.05

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        ncon=st.integers(1, 4),
        unit=st.booleans(),
    )
    def test_never_worsens_cut_or_feasibility(self, seed, ncon, unit):
        g = random_graph(seed, n=150, ncon=ncon, unit_weights=unit)
        part = _half_split(g, seed)
        cut0 = edge_cut(g, part)
        imb0 = imbalance(g, part, 2).max()
        fm_refine(g, part, rng=_rng(seed + 1), check_cut=True)
        assert edge_cut(g, part) <= cut0
        assert imbalance(g, part, 2).max() <= max(imb0, 1.05) + 1e-9


def _sc_and_mc_tl_graphs(mesh, num_levels: int) -> tuple[CSRGraph, CSRGraph]:
    """The mesh dual with unit weights (SC) and with one-hot temporal
    level indicators (the MC_TL shape)."""
    tau = levels_from_depth(mesh, num_levels=num_levels)
    lev = np.zeros((mesh.num_cells, int(tau.max()) + 1))
    lev[np.arange(mesh.num_cells), tau] = 1.0
    g_sc = mesh_to_dual_graph(mesh)
    return g_sc, g_sc.with_vwgt(lev)


@pytest.fixture(scope="module")
def pipeline_case(small_mesh):
    return _sc_and_mc_tl_graphs(small_mesh, 3)


def _with_seed_kernels(monkeypatch):
    """Swap the seed HEM/FM implementations into the full pipeline."""
    monkeypatch.setattr(coarsen_mod, "heavy_edge_matching", heavy_edge_matching_ref)
    monkeypatch.setattr(bisect_mod, "fm_refine", fm_refine_ref)


class TestPipelineSeedParity:
    """End-to-end k-way parity: fast kernels vs the seed kernels."""

    @pytest.mark.parametrize("mode", ["sc", "mc_tl"])
    def test_kway_cut_within_5pct_of_seed_mean(
        self, pipeline_case, monkeypatch, mode
    ):
        g = pipeline_case[0 if mode == "sc" else 1]
        seeds = range(5)
        fast = [partition_graph(g, 8, seed=s) for s in seeds]
        with monkeypatch.context() as mp:
            _with_seed_kernels(mp)
            ref = [partition_graph(g, 8, seed=s) for s in seeds]
        ratios = [f.cut / r.cut for f, r in zip(fast, ref)]
        assert np.mean(ratios) <= 1.05
        # Identical imbalance guarantees: the fast path never loosens
        # the bound the seed achieved (on tiny meshes a multi-
        # constraint run may quantize slightly past the 1.05 tol —
        # the seed does too, so compare against it, not the tol).
        for f, r in zip(fast, ref):
            bound = max(1.05, float(r.imbalance.max()))
            assert float(f.imbalance.max()) <= bound + 1e-9

    def test_kway_deterministic_given_seed(self, pipeline_case):
        g = pipeline_case[1]
        a = partition_graph(g, 8, seed=4)
        b = partition_graph(g, 8, seed=4)
        np.testing.assert_array_equal(a.part, b.part)


class TestHillClimbAllowanceFrontier:
    """The boundary-sized FM allowance against the seed allowance of
    1/64 of ``n``, on the configuration where they differ most."""

    def test_bisection_cut_vs_seed_allowance(self, monkeypatch):
        # One bisection of a 90k-cell quadtree dual: the seed rule
        # allows 1407 non-improving moves, the boundary rule ~200-450,
        # at every level from the finest down to n ~ 6400 (below that
        # both clamp to 100).  This is where the cheaper rule costs the
        # most cut — measured geomean ratio over these 8 runs 1.064
        # (1.05 at ncon 1, 1.08 at ncon 4), against 1.02-1.03 for the
        # 8-part partitions the pipeline makes and ~1.00 at 20k
        # vertices (table in EXPERIMENTS.md).  The bound pins that
        # frontier; balance is not traded.
        mesh = cylinder_mesh(max_depth=11)
        assert mesh.num_cells >= 60_000

        def seed_allowance(g, part, **kw):
            stop = max(100, g.num_vertices // 64)
            return fm_refine(g, part, early_stop=stop, **kw)

        ratios = []
        for g in _sc_and_mc_tl_graphs(mesh, 4):
            for seed in range(4):
                new = partition_graph(g, 2, seed=seed)
                with monkeypatch.context() as mp:
                    mp.setattr(bisect_mod, "fm_refine", seed_allowance)
                    ref = partition_graph(g, 2, seed=seed)
                for res in (new, ref):
                    assert res.provenance == "primary"
                    assert not check_partition_contract(
                        g, res.part, 2, imbalance_tol=1.05
                    )
                ratios.append(new.cut / ref.cut)
        assert np.exp(np.mean(np.log(ratios))) <= 1.10


class TestParallelBisection:
    """The n_jobs knob must change wall-clock only, never the answer
    for a fixed worker-count mode."""

    @pytest.mark.parametrize("mode", ["sc", "mc_tl"])
    def test_parallel_quality_matches_serial(self, pipeline_case, mode):
        # Parallel workers consume spawned rng streams, so individual
        # runs differ from serial — quality must match in aggregate.
        g = pipeline_case[0 if mode == "sc" else 1]
        ratios = []
        for seed in range(6):
            serial = partition_graph(g, 8, seed=seed, n_jobs=1)
            par = partition_graph(g, 8, seed=seed, n_jobs=2)
            ratios.append(par.cut / serial.cut)
            # 0.01 slack: one cell of a small temporal-level class on
            # this ~1k-cell mesh moves the ratio by ~0.004.
            bound = max(1.05, float(serial.imbalance.max())) + 0.01
            assert float(par.imbalance.max()) <= bound
        assert np.mean(ratios) <= 1.05

    def test_parallel_deterministic_across_worker_counts(self, pipeline_case):
        # Per-node spawned rng streams make the result a function of
        # the seed alone, not of scheduling or worker count.
        g = pipeline_case[1]
        parts = [
            partition_graph(g, 8, seed=7, n_jobs=j).part for j in (2, 3, 4, 2)
        ]
        for p in parts[1:]:
            np.testing.assert_array_equal(parts[0], p)

    def test_negative_n_jobs_uses_cpu_count(self, pipeline_case):
        g = pipeline_case[0]
        res = partition_graph(g, 4, seed=1, n_jobs=-1)
        assert res.part.max() == 3
        assert float(res.imbalance.max()) <= 1.05 + 1e-9
