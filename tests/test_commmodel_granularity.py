"""Tests for the α/β communication model and granularity auto-tuning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flusim import ClusterConfig, CommModel, simulate
from repro.partitioning import tune_granularity
from tests.test_flusim import chain_dag, independent_dag
from tests.oracles.invariants import validate_schedule


class TestCommModel:
    def test_delay_formula(self):
        cm = CommModel(latency=2.0, bandwidth=10.0)
        assert cm.delay(50) == pytest.approx(2.0 + 5.0)

    def test_infinite_bandwidth(self):
        cm = CommModel(latency=3.0)
        assert cm.delay(10 ** 9) == 3.0

    def test_free_model(self):
        assert CommModel().is_free
        assert not CommModel(latency=1.0).is_free

    def test_cross_process_edge_delayed(self):
        dag = chain_dag([2.0, 3.0], processes=[0, 1])
        cm = CommModel(latency=4.0)
        trace = simulate(dag, ClusterConfig(2, 1), comm=cm)
        assert trace.start[1] == pytest.approx(2.0 + 4.0)
        validate_schedule(trace, dag)

    def test_same_process_edge_free(self):
        dag = chain_dag([2.0, 3.0], processes=[0, 0])
        cm = CommModel(latency=4.0)
        trace = simulate(dag, ClusterConfig(1, 1), comm=cm)
        assert trace.start[1] == pytest.approx(2.0)

    def test_volume_term_uses_producer_objects(self):
        dag = chain_dag([1.0, 1.0], processes=[0, 1])
        dag.tasks.num_objects[0] = 100
        cm = CommModel(latency=0.0, bandwidth=50.0)
        trace = simulate(dag, ClusterConfig(2, 1), comm=cm)
        assert trace.start[1] == pytest.approx(1.0 + 100 / 50.0)

    def test_max_over_predecessors(self):
        """Readiness waits for the slowest arriving message."""
        from repro.taskgraph import TaskDAG

        tasks = independent_dag([1.0, 5.0, 1.0], [0, 1, 2]).tasks
        dag = TaskDAG(tasks=tasks, edges=np.array([[0, 2], [1, 2]]))
        cm = CommModel(latency=2.0)
        trace = simulate(dag, ClusterConfig(3, 1), comm=cm)
        # Preds end at 1 and 5; messages arrive at 3 and 7.
        assert trace.start[2] == pytest.approx(7.0)

    def test_zero_model_equals_no_model(self, cube_dag_mc):
        t1 = simulate(cube_dag_mc, ClusterConfig(4, 4))
        t2 = simulate(cube_dag_mc, ClusterConfig(4, 4), comm=CommModel())
        np.testing.assert_allclose(t1.start, t2.start)

    def test_latency_monotone_makespan(self, cube_dag_mc):
        spans = [
            simulate(
                cube_dag_mc,
                ClusterConfig(4, 4),
                comm=CommModel(latency=lat),
            ).makespan
            for lat in (0.0, 5.0, 20.0)
        ]
        assert spans[0] <= spans[1] <= spans[2]

    def test_mc_tl_advantage_erodes_with_latency(
        self, cube_dag_sc, cube_dag_mc
    ):
        """MC_TL carries more cross-process edges, so its advantage
        shrinks as the link gets slower — the dual-phase motivation."""

        def ratio(lat):
            cm = CommModel(latency=lat)
            sc = simulate(cube_dag_sc, ClusterConfig(4, 4), comm=cm).makespan
            mc = simulate(cube_dag_mc, ClusterConfig(4, 4), comm=cm).makespan
            return sc / mc

        assert ratio(50.0) < ratio(0.0)


class TestGranularityTuning:
    def test_search_structure(self, small_cube_mesh, small_cube_tau):
        res = tune_granularity(
            small_cube_mesh,
            small_cube_tau,
            ClusterConfig(2, 4),
            strategy="SC_OC",
        )
        counts = res.domain_counts()
        assert counts == sorted(counts)
        assert counts[0] >= 2
        assert res.best.objective == min(p.objective for p in res.evaluated)

    def test_overhead_pushes_toward_coarser(self, small_cube_mesh, small_cube_tau):
        """Large per-task overhead must not select the finest
        granularity."""
        free = tune_granularity(
            small_cube_mesh, small_cube_tau, ClusterConfig(2, 8),
            strategy="SC_OC",
        )
        heavy = tune_granularity(
            small_cube_mesh, small_cube_tau, ClusterConfig(2, 8),
            strategy="SC_OC", task_overhead=50.0,
        )
        assert heavy.best.domains <= free.best.domains

    def test_comm_penalty_enters_objective(self, small_cube_mesh, small_cube_tau):
        res = tune_granularity(
            small_cube_mesh, small_cube_tau, ClusterConfig(2, 4),
            strategy="MC_TL", comm_cost=1.0,
        )
        for p in res.evaluated:
            assert p.objective == pytest.approx(
                p.makespan + p.comm_volume
            )

    def test_more_domains_more_tasks(self, small_cube_mesh, small_cube_tau):
        res = tune_granularity(
            small_cube_mesh, small_cube_tau, ClusterConfig(2, 4),
            strategy="SC_OC",
        )
        tasks = [p.num_tasks for p in res.evaluated]
        assert tasks == sorted(tasks)
