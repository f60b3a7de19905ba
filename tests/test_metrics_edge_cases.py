"""Edge-case tests for traces, metrics and analysis helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flusim import (
    ClusterConfig,
    schedule_metrics,
    simulate,
    subiteration_balance,
)
from repro.flusim.trace import Trace
from repro.taskgraph import TaskDAG
from repro.taskgraph.task import TaskArrays
from tests.test_flusim import chain_dag, independent_dag
from tests.oracles.invariants import validate_schedule


class TestTraceEdgeCases:
    def test_empty_trace_makespan(self):
        dag = independent_dag([], [])
        trace = simulate(dag, ClusterConfig(2, 2))
        assert trace.makespan == 0.0
        assert trace.efficiency() == 1.0
        assert trace.total_process_idle_fraction() == 0.0

    def test_single_task(self):
        dag = independent_dag([5.0], [0])
        trace = simulate(dag, ClusterConfig(1, 1))
        assert trace.makespan == 5.0
        assert trace.efficiency() == pytest.approx(1.0)
        assert trace.process_idle_time(0) == pytest.approx(0.0)

    def test_idle_process_fully_idle(self):
        dag = independent_dag([4.0], [0])
        trace = simulate(dag, ClusterConfig(2, 1))
        assert trace.process_idle_time(1) == pytest.approx(4.0)
        assert trace.process_active_intervals(1).shape == (0, 2)

    def test_validate_rejects_length_mismatch(self):
        dag = chain_dag([1.0, 1.0])
        trace = Trace(
            process=np.zeros(1, dtype=np.int32),
            worker=np.zeros(1, dtype=np.int32),
            start=np.zeros(1),
            end=np.ones(1),
            num_processes=1,
            cores_per_process=1,
        )
        with pytest.raises(ValueError, match="mismatch"):
            validate_schedule(trace, dag)

    def test_validate_rejects_foreign_process(self):
        dag = independent_dag([1.0, 1.0], [0, 1])
        trace = simulate(dag, ClusterConfig(2, 1))
        trace.process = np.zeros(2, dtype=np.int32)
        with pytest.raises(ValueError, match="foreign"):
            validate_schedule(trace, dag)

    def test_validate_rejects_worker_overlap(self):
        dag = independent_dag([2.0, 2.0], [0, 0])
        trace = Trace(
            process=np.zeros(2, dtype=np.int32),
            worker=np.zeros(2, dtype=np.int32),  # same worker…
            start=np.array([0.0, 1.0]),  # …overlapping intervals
            end=np.array([2.0, 3.0]),
            num_processes=1,
            cores_per_process=1,
        )
        with pytest.raises(ValueError, match="two tasks at once"):
            validate_schedule(trace, dag)


class TestMetricsEdgeCases:
    def test_metrics_on_empty_dag(self):
        dag = independent_dag([], [])
        trace = simulate(dag, ClusterConfig(1, 1))
        m = schedule_metrics(dag, trace)
        assert m.makespan == 0.0
        assert m.total_work == 0.0
        assert m.critical_path == 0.0

    def test_subiteration_balance_single_process(self):
        dag = chain_dag([1.0, 2.0, 3.0])
        b = subiteration_balance(dag, 1)
        np.testing.assert_allclose(b, 1.0)

    def test_subiteration_balance_empty_subiteration(self):
        tasks = TaskArrays(
            subiteration=np.array([0, 2], dtype=np.int32),
            phase_tau=np.zeros(2, dtype=np.int32),
            obj_type=np.zeros(2, dtype=np.int8),
            locality=np.zeros(2, dtype=np.int8),
            domain=np.zeros(2, dtype=np.int32),
            process=np.zeros(2, dtype=np.int32),
            num_objects=np.ones(2, dtype=np.int64),
            cost=np.ones(2),
        )
        dag = TaskDAG(tasks=tasks, edges=np.empty((0, 2), dtype=np.int64))
        b = subiteration_balance(dag, 2)
        assert len(b) == 3
        assert b[1] == 1.0  # empty subiteration reports neutral


class TestGanttEdgeCases:
    def test_gantt_on_empty_trace(self):
        from repro.viz import render_process_gantt

        dag = independent_dag([], [])
        trace = simulate(dag, ClusterConfig(2, 1))
        out = render_process_gantt(trace, dag, width=10)
        lines = out.splitlines()
        assert len(lines) == 2
        assert all("." * 10 in l for l in lines)

    def test_gantt_subiteration_over_ten(self):
        from repro.viz import render_process_gantt

        tasks = TaskArrays(
            subiteration=np.array([12], dtype=np.int32),
            phase_tau=np.zeros(1, dtype=np.int32),
            obj_type=np.zeros(1, dtype=np.int8),
            locality=np.zeros(1, dtype=np.int8),
            domain=np.zeros(1, dtype=np.int32),
            process=np.zeros(1, dtype=np.int32),
            num_objects=np.ones(1, dtype=np.int64),
            cost=np.ones(1),
        )
        dag = TaskDAG(tasks=tasks, edges=np.empty((0, 2), dtype=np.int64))
        trace = simulate(dag, ClusterConfig(1, 1))
        out = render_process_gantt(trace, dag, width=10)
        assert "#" in out  # double-digit subiterations render as '#'


class TestExportEdgeCases:
    def test_export_empty_dag(self, tmp_path):
        from repro.flusim.export import write_csv, write_json

        dag = independent_dag([], [])
        trace = simulate(dag, ClusterConfig(1, 1))
        write_json(trace, dag, tmp_path / "t.json")
        write_csv(trace, dag, tmp_path / "t.csv")
        assert (tmp_path / "t.json").exists()
        # CSV degenerates to a header-only file.
        assert (tmp_path / "t.csv").read_text().strip() == "task"
