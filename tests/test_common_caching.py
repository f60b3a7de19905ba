"""Tests for the experiments infrastructure (caching, configs)."""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    NUM_LEVELS,
    cached_decomposition,
    cached_task_graph,
    run_flusim,
    standard_case,
)
from tests.oracles.invariants import validate_schedule


class TestStandardCase:
    def test_memoized(self):
        m1, t1 = standard_case("cube", scale=7)
        m2, t2 = standard_case("cube", scale=7)
        assert m1 is m2
        assert t1 is t2

    def test_scales_differ(self):
        m1, _ = standard_case("cube", scale=7)
        m2, _ = standard_case("cube", scale=8)
        assert m2.num_cells > m1.num_cells

    def test_level_caps(self):
        for name, nlev in NUM_LEVELS.items():
            _, tau = standard_case(name, scale=7)
            assert tau.max() <= nlev - 1

    def test_unknown_mesh_raises(self):
        import pytest

        with pytest.raises(ValueError):
            standard_case("torus")


class TestCachedArtifacts:
    def test_decomposition_cached(self):
        d1 = cached_decomposition("cube", 4, 2, "SC_OC", scale=7, seed=0)
        d2 = cached_decomposition("cube", 4, 2, "SC_OC", scale=7, seed=0)
        assert d1 is d2

    def test_different_seeds_not_shared(self):
        d1 = cached_decomposition("cube", 4, 2, "MC_TL", scale=7, seed=0)
        d2 = cached_decomposition("cube", 4, 2, "MC_TL", scale=7, seed=1)
        assert d1 is not d2

    def test_task_graph_consistent_with_decomposition(self):
        dag = cached_task_graph("cube", 4, 2, "SC_OC", scale=7, seed=0)
        dec = cached_decomposition("cube", 4, 2, "SC_OC", scale=7, seed=0)
        np.testing.assert_array_equal(
            dag.tasks.process, dec.domain_process[dag.tasks.domain]
        )

    def test_run_flusim_end_to_end(self):
        rec = run_flusim("cube", 4, 2, 2, "MC_TL", scale=7, seed=0)
        dag, trace, metrics = rec.dag, rec.trace, rec.metrics
        validate_schedule(trace, dag)
        assert metrics.makespan == trace.makespan
        assert metrics.total_work > 0
