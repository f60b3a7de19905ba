"""Tests for SC_OC / MC_TL / DUAL / RCB / SFC strategies and the
decomposition container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partitioning import (
    DomainDecomposition,
    dual_phase_partition,
    make_decomposition,
    mc_tl_partition,
    rcb_partition,
    sc_oc_partition,
    sfc_partition,
)
from repro.temporal import operating_costs


def _per_domain_cost(domain, tau, ndom):
    cost = operating_costs(tau)
    out = np.zeros(ndom)
    np.add.at(out, domain, cost)
    return out


def _per_domain_level_counts(domain, tau, ndom):
    nlev = int(tau.max()) + 1
    out = np.zeros((ndom, nlev), dtype=np.int64)
    np.add.at(out, (domain, tau), 1)
    return out


class TestSCOC:
    def test_balances_total_cost(self, small_cube_mesh, small_cube_tau):
        domain = sc_oc_partition(small_cube_mesh, small_cube_tau, 4, seed=0)
        cost = _per_domain_cost(domain, small_cube_tau, 4)
        assert cost.max() / cost.mean() < 1.15

    def test_all_domains_used(self, small_cube_mesh, small_cube_tau):
        domain = sc_oc_partition(small_cube_mesh, small_cube_tau, 6, seed=0)
        assert set(np.unique(domain)) == set(range(6))


class TestMCTL:
    def test_balances_every_level(self, small_cube_mesh, small_cube_tau):
        """The defining property: each temporal-level class is spread
        evenly across domains."""
        domain = mc_tl_partition(small_cube_mesh, small_cube_tau, 4, seed=0)
        counts = _per_domain_level_counts(domain, small_cube_tau, 4)
        for t in range(counts.shape[1]):
            col = counts[:, t]
            assert col.max() <= 1.5 * col.mean() + 2

    def test_beats_sc_oc_on_level_balance(
        self, small_cube_mesh, small_cube_tau
    ):
        d_sc = sc_oc_partition(small_cube_mesh, small_cube_tau, 4, seed=0)
        d_mc = mc_tl_partition(small_cube_mesh, small_cube_tau, 4, seed=0)

        def worst_level_imbalance(domain):
            counts = _per_domain_level_counts(
                domain, small_cube_tau, 4
            ).astype(float)
            mean = counts.mean(axis=0)
            return (counts.max(axis=0) / np.maximum(mean, 1e-9)).max()

        assert worst_level_imbalance(d_mc) < worst_level_imbalance(d_sc)

    def test_total_cost_still_balanced(self, small_cube_mesh, small_cube_tau):
        """Balancing every level implies balancing the total cost."""
        domain = mc_tl_partition(small_cube_mesh, small_cube_tau, 4, seed=0)
        cost = _per_domain_cost(domain, small_cube_tau, 4)
        assert cost.max() / cost.mean() < 1.5


class TestDualPhase:
    def test_structure(self, small_cube_mesh, small_cube_tau):
        domain, dproc = dual_phase_partition(
            small_cube_mesh, small_cube_tau, 2, 3, seed=0
        )
        assert len(dproc) == 6
        np.testing.assert_array_equal(dproc, [0, 0, 0, 1, 1, 1])
        assert set(np.unique(domain)) <= set(range(6))

    def test_domains_nest_in_processes(self, small_cube_mesh, small_cube_tau):
        """Cells of domain d must live on process dproc[d] (phase-2
        splits never cross the phase-1 boundary)."""
        domain, dproc = dual_phase_partition(
            small_cube_mesh, small_cube_tau, 2, 3, seed=0
        )
        proc_of_cell = dproc[domain]
        # Re-run phase 1 to compare.
        from repro.partitioning import mc_tl_partition

        phase1 = mc_tl_partition(small_cube_mesh, small_cube_tau, 2, seed=0)
        np.testing.assert_array_equal(proc_of_cell, phase1)

    def test_process_level_balance(self, small_cube_mesh, small_cube_tau):
        domain, dproc = dual_phase_partition(
            small_cube_mesh, small_cube_tau, 2, 4, seed=0
        )
        proc = dproc[domain]
        counts = _per_domain_level_counts(proc, small_cube_tau, 2)
        for t in range(counts.shape[1]):
            col = counts[:, t]
            assert col.max() <= 1.6 * col.mean() + 2


class TestGeometricBaselines:
    def test_rcb_balances_cost(self, small_cube_mesh, small_cube_tau):
        domain = rcb_partition(small_cube_mesh, small_cube_tau, 8)
        cost = _per_domain_cost(domain, small_cube_tau, 8)
        assert cost.max() / cost.mean() < 1.4

    def test_rcb_all_domains(self, small_cube_mesh, small_cube_tau):
        domain = rcb_partition(small_cube_mesh, small_cube_tau, 8)
        assert set(np.unique(domain)) == set(range(8))

    def test_sfc_balances_cost(self, small_cube_mesh, small_cube_tau):
        domain = sfc_partition(small_cube_mesh, small_cube_tau, 8)
        cost = _per_domain_cost(domain, small_cube_tau, 8)
        assert cost.max() / cost.mean() < 1.5

    def test_sfc_chunks_contiguous_in_curve(self, small_cube_mesh, small_cube_tau):
        domain = sfc_partition(small_cube_mesh, small_cube_tau, 4)
        assert set(np.unique(domain)) == set(range(4))


class TestDecomposition:
    def test_block_mapping_even(self):
        domain = np.arange(8) % 8
        dec = DomainDecomposition.block_mapping(domain, 8, 4)
        counts = np.bincount(dec.domain_process, minlength=4)
        assert np.all(counts == 2)

    def test_cell_process(self):
        domain = np.array([0, 1, 2, 3])
        dec = DomainDecomposition.block_mapping(domain, 4, 2)
        np.testing.assert_array_equal(dec.cell_process, [0, 0, 1, 1])

    def test_too_few_domains_raises(self):
        with pytest.raises(ValueError):
            DomainDecomposition.block_mapping(np.zeros(4, dtype=int), 2, 4)

    def test_domain_out_of_range_raises(self):
        with pytest.raises(ValueError):
            DomainDecomposition(
                domain=np.array([0, 5]),
                num_domains=2,
                domain_process=np.array([0, 0]),
                num_processes=1,
            )

    def test_helpers(self):
        dec = DomainDecomposition.block_mapping(
            np.array([0, 0, 1, 2, 3]), 4, 2
        )
        np.testing.assert_array_equal(dec.domain_process, [0, 0, 1, 1])
        np.testing.assert_array_equal(dec.cell_process, [0, 0, 0, 1, 1])


class TestMakeDecomposition:
    @pytest.mark.parametrize("strategy", ["SC_OC", "MC_TL", "RCB", "SFC"])
    def test_strategies(self, small_cube_mesh, small_cube_tau, strategy):
        dec = make_decomposition(
            small_cube_mesh, small_cube_tau, 8, 4, strategy=strategy, seed=0
        )
        assert dec.num_domains == 8
        assert dec.num_processes == 4
        assert dec.strategy == strategy

    def test_dual(self, small_cube_mesh, small_cube_tau):
        dec = make_decomposition(
            small_cube_mesh, small_cube_tau, 8, 4, strategy="DUAL", seed=0
        )
        assert dec.strategy == "DUAL"
        # Domains 0,1 on process 0; 2,3 on process 1; etc.
        np.testing.assert_array_equal(
            dec.domain_process, [0, 0, 1, 1, 2, 2, 3, 3]
        )

    def test_dual_requires_multiple(self, small_cube_mesh, small_cube_tau):
        with pytest.raises(ValueError, match="multiple"):
            make_decomposition(
                small_cube_mesh, small_cube_tau, 7, 4, strategy="DUAL"
            )

    def test_unknown_strategy(self, small_cube_mesh, small_cube_tau):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_decomposition(
                small_cube_mesh, small_cube_tau, 8, 4, strategy="XXX"
            )
