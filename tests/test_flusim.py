"""Tests for the FLUSIM discrete-event simulator, schedulers, traces
and metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flusim import (
    SCHEDULERS,
    ClusterConfig,
    UNBOUNDED,
    schedule_metrics,
    simulate,
    subiteration_balance,
    taskgraph_comm_volume,
)
from repro.flusim.schedulers import FifoQueue, LifoQueue, PriorityQueue, make_scheduler
from repro.taskgraph import TaskDAG
from repro.taskgraph.task import TaskArrays
from tests.oracles.invariants import validate_schedule


def chain_dag(costs, processes=None):
    """A linear chain of tasks."""
    n = len(costs)
    if processes is None:
        processes = [0] * n
    tasks = TaskArrays(
        subiteration=np.zeros(n, dtype=np.int32),
        phase_tau=np.zeros(n, dtype=np.int32),
        obj_type=np.zeros(n, dtype=np.int8),
        locality=np.zeros(n, dtype=np.int8),
        domain=np.array(processes, dtype=np.int32),
        process=np.array(processes, dtype=np.int32),
        num_objects=np.ones(n, dtype=np.int64),
        cost=np.array(costs, dtype=np.float64),
    )
    edges = np.array([[i, i + 1] for i in range(n - 1)]).reshape(-1, 2)
    return TaskDAG(tasks=tasks, edges=edges)


def independent_dag(costs, processes):
    n = len(costs)
    tasks = TaskArrays(
        subiteration=np.zeros(n, dtype=np.int32),
        phase_tau=np.zeros(n, dtype=np.int32),
        obj_type=np.zeros(n, dtype=np.int8),
        locality=np.zeros(n, dtype=np.int8),
        domain=np.array(processes, dtype=np.int32),
        process=np.array(processes, dtype=np.int32),
        num_objects=np.ones(n, dtype=np.int64),
        cost=np.array(costs, dtype=np.float64),
    )
    return TaskDAG(tasks=tasks, edges=np.empty((0, 2), dtype=np.int64))


class TestClusterConfig:
    def test_basic(self):
        c = ClusterConfig(4, 8)
        assert c.cores == 8

    def test_unbounded(self):
        c = ClusterConfig(4, None)
        assert c.cores == UNBOUNDED

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(0, 1)
        with pytest.raises(ValueError):
            ClusterConfig(1, 0)


class TestSimulateAnalytic:
    """Cases with known-exact schedules."""

    def test_chain_serializes(self):
        dag = chain_dag([1.0, 2.0, 3.0])
        trace = simulate(dag, ClusterConfig(1, 4))
        assert trace.makespan == pytest.approx(6.0)
        np.testing.assert_allclose(trace.start, [0, 1, 3])

    def test_independent_tasks_one_core(self):
        dag = independent_dag([1.0, 1.0, 1.0], [0, 0, 0])
        trace = simulate(dag, ClusterConfig(1, 1))
        assert trace.makespan == pytest.approx(3.0)

    def test_independent_tasks_many_cores(self):
        dag = independent_dag([1.0, 2.0, 3.0], [0, 0, 0])
        trace = simulate(dag, ClusterConfig(1, 3))
        assert trace.makespan == pytest.approx(3.0)
        assert trace.efficiency() == pytest.approx(6.0 / 9.0)

    def test_tasks_pinned_to_process(self):
        dag = independent_dag([5.0, 1.0], [0, 1])
        trace = simulate(dag, ClusterConfig(2, 1))
        # Process 1 cannot steal process 0's work.
        assert trace.makespan == pytest.approx(5.0)
        np.testing.assert_array_equal(trace.process, [0, 1])

    def test_cross_process_dependency(self):
        dag = chain_dag([2.0, 3.0], processes=[0, 1])
        trace = simulate(dag, ClusterConfig(2, 1))
        assert trace.start[1] == pytest.approx(2.0)
        assert trace.makespan == pytest.approx(5.0)

    def test_unbounded_cores_reach_critical_path(self):
        # Diamond: 0 → (1,2) → 3.
        tasks = independent_dag([1.0, 2.0, 4.0, 1.0], [0, 0, 0, 0]).tasks
        edges = np.array([[0, 1], [0, 2], [1, 3], [2, 3]])
        dag = TaskDAG(tasks=tasks, edges=edges)
        trace = simulate(dag, ClusterConfig(1, None))
        cp, _ = dag.critical_path()
        assert trace.makespan == pytest.approx(cp) == pytest.approx(6.0)

    def test_durations_override(self):
        dag = chain_dag([1.0, 1.0])
        trace = simulate(
            dag, ClusterConfig(1, 1), durations=np.array([5.0, 5.0])
        )
        assert trace.makespan == pytest.approx(10.0)

    def test_zero_duration_tasks(self):
        dag = chain_dag([0.0, 0.0, 1.0])
        trace = simulate(dag, ClusterConfig(1, 1))
        assert trace.makespan == pytest.approx(1.0)

    def test_empty_dag(self):
        dag = independent_dag([], [])
        trace = simulate(dag, ClusterConfig(2, 2))
        assert trace.makespan == 0.0

    def test_negative_duration_rejected(self):
        dag = chain_dag([1.0])
        with pytest.raises(ValueError):
            simulate(dag, ClusterConfig(1, 1), durations=np.array([-1.0]))

    def test_process_out_of_range_rejected(self):
        dag = independent_dag([1.0], [3])
        with pytest.raises(ValueError):
            simulate(dag, ClusterConfig(2, 1))


class TestSimulateOnRealGraphs:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_valid_schedule_every_scheduler(self, cube_dag_mc, scheduler):
        trace = simulate(
            cube_dag_mc, ClusterConfig(4, 4), scheduler=scheduler, seed=1
        )
        validate_schedule(trace, cube_dag_mc)

    def test_makespan_bounds(self, cube_dag_mc):
        trace = simulate(cube_dag_mc, ClusterConfig(4, 4))
        cp, _ = cube_dag_mc.critical_path()
        assert trace.makespan >= cp - 1e-9
        assert trace.makespan <= cube_dag_mc.total_work() + 1e-9

    def test_more_cores_never_worse_much(self, cube_dag_mc):
        """Eager list scheduling anomalies are bounded; in practice
        more cores help on these graphs."""
        m1 = simulate(cube_dag_mc, ClusterConfig(4, 1)).makespan
        m8 = simulate(cube_dag_mc, ClusterConfig(4, 8)).makespan
        assert m8 <= m1

    def test_work_conserved(self, cube_dag_mc):
        trace = simulate(cube_dag_mc, ClusterConfig(4, 2))
        busy = (trace.end - trace.start).sum()
        assert busy == pytest.approx(cube_dag_mc.total_work())

    def test_deterministic(self, cube_dag_sc):
        t1 = simulate(cube_dag_sc, ClusterConfig(4, 2), seed=3)
        t2 = simulate(cube_dag_sc, ClusterConfig(4, 2), seed=3)
        np.testing.assert_array_equal(t1.start, t2.start)


class TestTrace:
    def test_busy_time(self):
        dag = independent_dag([2.0, 3.0], [0, 1])
        trace = simulate(dag, ClusterConfig(2, 1))
        np.testing.assert_allclose(
            trace.busy_time_per_process(), [2.0, 3.0]
        )

    def test_idle_time_composite(self):
        dag = chain_dag([1.0, 1.0], processes=[0, 1])
        trace = simulate(dag, ClusterConfig(2, 1))
        # Process 1 waits 1 unit then works 1 → idle 1 of makespan 2.
        assert trace.process_idle_time(1) == pytest.approx(1.0)
        assert trace.process_idle_time(0) == pytest.approx(1.0)

    def test_active_intervals_merged(self):
        dag = independent_dag([1.0, 1.0], [0, 0])
        trace = simulate(dag, ClusterConfig(1, 2))
        ivals = trace.process_active_intervals(0)
        assert len(ivals) == 1
        np.testing.assert_allclose(ivals[0], [0.0, 1.0])

    def test_validate_catches_violated_dependency(self, cube_dag_sc):
        trace = simulate(cube_dag_sc, ClusterConfig(4, 2))
        trace.start[:] = 0.0  # break it
        with pytest.raises(ValueError):
            validate_schedule(trace, cube_dag_sc)


class TestSchedulers:
    def test_fifo_order(self):
        q = FifoQueue()
        q.push(5, 0.0)
        q.push(3, 1.0)
        assert q.pop() == 5
        assert q.pop() == 3

    def test_lifo_order(self):
        q = LifoQueue()
        q.push(5, 0.0)
        q.push(3, 1.0)
        assert q.pop() == 3

    def test_priority_order(self):
        q = PriorityQueue(np.array([1.0, 9.0, 5.0]))
        for t in (0, 1, 2):
            q.push(t, 0.0)
        assert q.pop() == 1
        assert q.pop() == 2
        assert q.pop() == 0

    def test_make_scheduler_validation(self):
        with pytest.raises(ValueError):
            make_scheduler("cp")
        with pytest.raises(ValueError):
            make_scheduler("nope")

    def test_cp_beats_or_ties_eager_sometimes(self, cube_dag_sc):
        """CP scheduling should never be dramatically worse."""
        m_e = simulate(cube_dag_sc, ClusterConfig(4, 2)).makespan
        m_cp = simulate(
            cube_dag_sc, ClusterConfig(4, 2), scheduler="cp"
        ).makespan
        assert m_cp <= 1.2 * m_e


class TestMetrics:
    def test_schedule_metrics_fields(self, cube_dag_mc):
        trace = simulate(cube_dag_mc, ClusterConfig(4, 4))
        m = schedule_metrics(cube_dag_mc, trace)
        assert m.makespan == trace.makespan
        assert 0 < m.efficiency <= 1
        assert m.total_work == pytest.approx(cube_dag_mc.total_work())

    def test_subiteration_balance_mc_better(self, cube_dag_sc, cube_dag_mc):
        """The core claim at the workload level: MC_TL balances every
        subiteration better than SC_OC."""
        b_sc = subiteration_balance(cube_dag_sc, 4)
        b_mc = subiteration_balance(cube_dag_mc, 4)
        assert b_mc.max() < b_sc.max()

    def test_balance_lower_bound(self, cube_dag_sc):
        assert np.all(subiteration_balance(cube_dag_sc, 4) >= 1.0 - 1e-12)


class TestCommVolume:
    def test_taskgraph_comm_positive(self, cube_dag_sc):
        assert taskgraph_comm_volume(cube_dag_sc) > 0

    def test_single_process_no_comm(self, small_cube_mesh, small_cube_tau):
        from repro.partitioning import make_decomposition
        from repro.taskgraph import generate_task_graph

        dec = make_decomposition(
            small_cube_mesh, small_cube_tau, 4, 1, strategy="SC_OC", seed=0
        )
        dag = generate_task_graph(small_cube_mesh, small_cube_tau, dec)
        assert taskgraph_comm_volume(dag) == 0

    def test_cut_faces_process_le_domain(
        self, small_cube_mesh, cube_decomp_sc
    ):
        """Domain cuts inside a process are free: the faces crossing a
        process boundary are a subset of those crossing a domain one."""
        a, b = small_cube_mesh.face_cells[small_cube_mesh.interior_faces()].T
        dec = cube_decomp_sc
        by_process = np.sum(dec.cell_process[a] != dec.cell_process[b])
        assert 0 < by_process <= np.sum(dec.domain[a] != dec.domain[b])


class TestSimulatorProperties:
    @given(
        st.lists(st.floats(0.1, 10.0), min_size=1, max_size=25),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_forests_schedule_validly(self, costs, nproc, cores):
        n = len(costs)
        rng = np.random.default_rng(42)
        processes = rng.integers(0, nproc, n)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, min(i + 3, n))
            if rng.random() < 0.4
        ]
        tasks = independent_dag(costs, processes).tasks
        dag = TaskDAG(
            tasks=tasks,
            edges=np.array(edges).reshape(-1, 2)
            if edges
            else np.empty((0, 2), dtype=np.int64),
        )
        trace = simulate(dag, ClusterConfig(nproc, cores))
        validate_schedule(trace, dag)
        assert (trace.end - trace.start).sum() == pytest.approx(sum(costs))
