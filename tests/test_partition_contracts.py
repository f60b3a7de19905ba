"""Partition contracts, input hardening and the degradation chain.

Covers the robustness subsystem: canonical input validation
(disconnected graphs, all-zero constraint columns, ``nparts > n``),
output contract checks with the escalating fallback chain and
provenance tracking, strict mode, and every mesh strategy on degraded
inputs — asserting contract-clean results or typed errors, never
silent garbage.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.graph import (
    PartitionQualityWarning,
    block_partition,
    check_partition_contract,
    connected_components,
    graph_from_edges,
    partition_graph,
    validate_partition_inputs,
)
from repro.graph.contracts import apportion_parts, weighted_contiguous_cuts
from repro.mesh import uniform_mesh
from repro.partitioning.strategies import STRATEGIES, make_decomposition
from repro.resilience.errors import (
    PartitionError,
    PartitionInternalError,
    PartitionQualityError,
)


def path_graph(n: int, vwgt=None) -> "CSRGraph":  # noqa: F821
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)], vwgt=vwgt)


def two_components(n1: int = 6, n2: int = 4):
    edges = [(i, i + 1) for i in range(n1 - 1)]
    edges += [(n1 + i, n1 + i + 1) for i in range(n2 - 1)]
    return graph_from_edges(n1 + n2, edges)


# ----------------------------------------------------------------------
# input validation
# ----------------------------------------------------------------------
class TestValidateInputs:
    def test_nparts_too_large_raises(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="non-empty"):
            validate_partition_inputs(g, 5)

    def test_empty_graph_rejects_more_than_one_part(self):
        g = graph_from_edges(0, np.zeros((0, 2), np.int64))
        with pytest.raises(
            ValueError, match="cannot create 2 non-empty parts from 0"
        ):
            partition_graph(g, 2)
        res = partition_graph(g, 1)
        assert res.part.tolist() == []
        assert res.provenance == "primary"

    def test_nparts_below_one_raises(self):
        with pytest.raises(ValueError):
            validate_partition_inputs(path_graph(3), 0)

    def test_zero_constraint_column_dropped(self):
        vwgt = np.ones((6, 3))
        vwgt[:, 1] = 0.0
        g = path_graph(6, vwgt=vwgt)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            rep = validate_partition_inputs(g, 2)
        assert rep.graph.ncon == 2
        assert rep.dropped_constraints == [1]
        assert any(
            issubclass(x.category, PartitionQualityWarning) for x in w
        )

    def test_all_zero_weights_become_unit(self):
        g = path_graph(4, vwgt=np.zeros((4, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = validate_partition_inputs(g, 2)
        assert rep.graph.ncon == 1
        assert np.all(rep.graph.vwgt > 0)

    def test_nonfinite_weights_rejected(self):
        vwgt = np.ones(5)
        vwgt[2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            validate_partition_inputs(path_graph(5, vwgt=vwgt), 2)

    def test_negative_weights_rejected(self):
        vwgt = np.ones(5)
        vwgt[0] = -1.0
        with pytest.raises(ValueError):
            validate_partition_inputs(path_graph(5, vwgt=vwgt), 2)


# ----------------------------------------------------------------------
# contract helpers
# ----------------------------------------------------------------------
class TestContractHelpers:
    def test_connected_components(self):
        g = two_components(6, 4)
        labels, ncomp = connected_components(g)
        assert ncomp == 2
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_check_contract_clean(self):
        g = path_graph(8)
        part = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32)
        assert check_partition_contract(g, part, 2) == []

    def test_check_contract_empty_part(self):
        g = path_graph(8)
        part = np.zeros(8, dtype=np.int32)
        violations = check_partition_contract(g, part, 2)
        assert any("empty" in v for v in violations)

    def test_check_contract_out_of_range(self):
        g = path_graph(4)
        part = np.array([0, 1, 2, 5], dtype=np.int32)
        violations = check_partition_contract(g, part, 2)
        assert violations

    def test_apportion_parts_sums(self):
        slots = apportion_parts(np.array([5.0, 3.0, 2.0]), 7)
        assert slots.sum() == 7
        assert slots[0] >= slots[1] >= slots[2]

    def test_weighted_cuts_nonempty_chunks(self):
        # Heavy-tailed: first element dwarfs the rest.
        w = np.array([1000.0, 1, 1, 1, 1])
        labels = weighted_contiguous_cuts(w, 4)
        assert len(np.unique(labels)) == 4
        assert np.all(np.diff(labels) >= 0)

    def test_block_partition_all_nonempty(self):
        labels = block_partition(10, 3)
        assert len(np.unique(labels)) == 3


# ----------------------------------------------------------------------
# partition_graph: degradation chain + provenance
# ----------------------------------------------------------------------
class TestPartitionGraphContract:
    def test_clean_result_has_primary_provenance(self, small_grid):
        res = partition_graph(small_grid, 4, seed=0)
        assert res.provenance == "primary"
        assert res.violations == ()
        assert check_partition_contract(small_grid, res.part, 4) == []

    def test_unclean_fallback_keeps_the_primary_labels_own_rung(
        self, monkeypatch
    ):
        """No rung meets the relaxed tolerance (1.25), and the primary
        labels violate it least: they come back as ``primary``, their
        violations counted at the relaxed tolerance, not as a
        ``relaxed`` result that still breaks it."""
        import repro.graph.partition as partition_mod

        # Constraint 1 puts part 0 over the strict bound but inside the
        # relaxed one; constraint 0 puts it over both.
        vwgt = np.ones((20, 2))
        vwgt[15:, 1] = 1.5
        g = path_graph(20, vwgt=vwgt)
        primary = (np.arange(20) >= 15).astype(np.int32)
        worse = (np.arange(20) >= 17).astype(np.int32)
        assert len(check_partition_contract(g, primary, 2)) == 2
        relaxed = check_partition_contract(g, primary, 2, imbalance_tol=1.25)
        assert len(relaxed) == 1
        assert len(check_partition_contract(g, worse, 2, imbalance_tol=1.25)) == 2
        labels = iter([primary, worse])
        monkeypatch.setattr(
            partition_mod, "recursive_bisection", lambda *a, **k: next(labels)
        )
        monkeypatch.setattr(partition_mod, "block_partition", lambda *a: worse)
        with pytest.warns(PartitionQualityWarning, match="kept provenance='primary'"):
            res = partition_graph(g, 2, seed=0)
        np.testing.assert_array_equal(res.part, primary)
        assert res.provenance == "primary"
        assert list(res.violations) == relaxed

    def test_disconnected_uses_components(self):
        g = two_components(6, 4)
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            res = partition_graph(g, 2, seed=0)
        assert res.provenance == "components"
        assert len(np.unique(res.part)) == 2
        assert any(
            issubclass(x.category, PartitionQualityWarning) for x in w
        )

    def test_disconnected_more_components_than_parts(self):
        # 4 components, 2 parts: zero-slot components must be packed.
        edges = []
        for c in range(4):
            base = 3 * c
            edges += [(base, base + 1), (base + 1, base + 2)]
        g = graph_from_edges(12, edges)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = partition_graph(g, 2, seed=0)
        assert len(np.unique(res.part)) == 2
        assert check_partition_contract(g, res.part, 2, imbalance_tol=1.5) == []

    def test_never_silent_garbage(self):
        """Adversarial sweep: every result is contract-clean or carries
        non-default provenance with a warning."""
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(2, 40))
            density = rng.random() * 0.3
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < density
            ]
            vwgt = np.ceil(rng.pareto(1.2, size=n) + 1.0)
            g = graph_from_edges(n, edges, vwgt=vwgt)
            k = int(rng.integers(2, n + 1))
            with warnings.catch_warnings(record=True) as w:
                warnings.simplefilter("always")
                res = partition_graph(g, k, seed=trial)
            clean = check_partition_contract(g, res.part, k) == []
            if not clean:
                assert res.provenance != "primary" or res.violations
                assert any(
                    issubclass(x.category, PartitionQualityWarning)
                    for x in w
                )

    def test_strict_raises_instead_of_degrading(self):
        """Find an input that degrades, then check strict mode raises."""
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = int(rng.integers(4, 30))
            edges = [(i, i + 1) for i in range(n - 1)]
            ncon = 3
            lev = rng.integers(0, ncon, size=n)
            vwgt = np.zeros((n, ncon))
            vwgt[np.arange(n), lev] = 1.0
            g = graph_from_edges(n, edges, vwgt=vwgt)
            k = int(rng.integers(2, min(6, n)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = partition_graph(g, k, seed=trial)
            if res.provenance in ("relaxed", "sfc", "block"):
                with pytest.raises(PartitionQualityError) as exc_info:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        partition_graph(g, k, seed=trial, strict=True)
                assert exc_info.value.violations
                return
        pytest.skip("no degrading input found in 200 trials")

    def test_single_vertex_graph(self):
        g = graph_from_edges(1, [])
        res = partition_graph(g, 1)
        assert res.part.tolist() == [0]

    def test_internal_error_is_typed(self):
        assert issubclass(PartitionInternalError, PartitionError)
        assert issubclass(PartitionQualityError, PartitionError)


# ----------------------------------------------------------------------
# strategies on degraded meshes
# ----------------------------------------------------------------------
def _merge_meshes(m1, m2, shift):
    from dataclasses import replace  # noqa: F401

    from repro.mesh.structures import Mesh

    off = np.asarray(shift, dtype=np.float64)
    n1 = m1.num_cells
    fc2 = m2.face_cells.copy()
    fc2[fc2 >= 0] += n1
    return Mesh(
        cell_centers=np.vstack([m1.cell_centers, m2.cell_centers + off]),
        cell_volumes=np.concatenate([m1.cell_volumes, m2.cell_volumes]),
        cell_depth=np.concatenate([m1.cell_depth, m2.cell_depth]),
        face_cells=np.vstack([m1.face_cells, fc2]),
        face_area=np.concatenate([m1.face_area, m2.face_area]),
        face_normal=np.vstack([m1.face_normal, m2.face_normal]),
        face_center=np.vstack([m1.face_center, m2.face_center + off]),
    )


@pytest.fixture(scope="module")
def disconnected_mesh():
    m = uniform_mesh(depth=3)
    return _merge_meshes(m, uniform_mesh(depth=2), [5.0, 0.0])


@pytest.fixture(scope="module")
def single_cell_mesh():
    from repro.mesh.structures import Mesh

    return Mesh(
        cell_centers=np.array([[0.5, 0.5]]),
        cell_volumes=np.array([1.0]),
        cell_depth=np.zeros(1, dtype=np.int64),
        face_cells=np.array([[0, -1]] * 4, dtype=np.int64),
        face_area=np.ones(4),
        face_normal=np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        ),
        face_center=np.array(
            [[1.0, 0.5], [0.0, 0.5], [0.5, 1.0], [0.5, 0.0]]
        ),
    )


class TestStrategiesDegraded:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_disconnected_dual_mesh(self, disconnected_mesh, strategy):
        mesh = disconnected_mesh
        rng = np.random.default_rng(0)
        tau = rng.integers(0, 3, size=mesh.num_cells).astype(np.int32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decomp = make_decomposition(
                mesh, tau, 4, 2, strategy=strategy, seed=0
            )
        dom = decomp.domain
        assert dom.min() >= 0 and dom.max() < 4
        assert len(np.unique(dom)) == 4

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_nparts_exceeds_cells(self, single_cell_mesh, strategy):
        with pytest.raises((ValueError, PartitionError)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                make_decomposition(
                    single_cell_mesh,
                    np.zeros(1, dtype=np.int32),
                    4,
                    2,
                    strategy=strategy,
                    seed=0,
                )

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_single_cell_mesh(self, single_cell_mesh, strategy):
        decomp = make_decomposition(
            single_cell_mesh,
            np.zeros(1, dtype=np.int32),
            1,
            1,
            strategy=strategy,
            seed=0,
        )
        assert decomp.domain.tolist() == [0]

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_all_one_temporal_level(self, flat_mesh, strategy):
        """MC_TL with a single constraint column (and everyone else)
        must still produce a clean 4-way split."""
        tau = np.zeros(flat_mesh.num_cells, dtype=np.int32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decomp = make_decomposition(
                flat_mesh, tau, 4, 2, strategy=strategy, seed=0
            )
        counts = np.bincount(decomp.domain, minlength=4)
        assert counts.min() > 0
        # Uniform weights: every strategy should be near-balanced.
        assert counts.max() <= 1.5 * flat_mesh.num_cells / 4

    def test_sfc_heavy_tailed_no_empty_domains(self, flat_mesh):
        """The old quantile cut could produce empty SFC domains on
        skewed costs."""
        n = flat_mesh.num_cells
        tau = np.zeros(n, dtype=np.int32)
        tau[:4] = 3  # huge operating cost on a handful of cells
        decomp = make_decomposition(
            flat_mesh, tau, 8, 2, strategy="SFC", seed=0
        )
        assert len(np.unique(decomp.domain)) == 8

    def test_rcb_skewed_costs_no_crash(self, flat_mesh):
        n = flat_mesh.num_cells
        tau = np.zeros(n, dtype=np.int32)
        tau[0] = 5
        decomp = make_decomposition(
            flat_mesh, tau, 8, 2, strategy="RCB", seed=0
        )
        assert len(np.unique(decomp.domain)) == 8
