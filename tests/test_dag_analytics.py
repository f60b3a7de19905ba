"""The level-synchronous DAG analytics against their scalar oracle.

``TaskDAG.topological_order`` / ``critical_path`` (with the depth
levels' widths, :func:`width_profile`) and
``Trace.process_active_intervals`` are array sweeps computed once per
object; ``tests/oracles/dag_scalar.py`` holds the per-task loops
they replaced.  Bottom levels are the same IEEE adds and maxes either
way, so every comparison here is exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flusim import ClusterConfig, schedule_metrics, simulate
from repro.flusim.trace import Trace
from repro.mesh import cylinder_mesh
from repro.partitioning import make_decomposition
from repro.pipeline.stages import TaskGraphStage
from repro.taskgraph import TaskDAG, generate_task_graph
from repro.taskgraph import dag as dag_module
from repro.taskgraph.task import TaskArrays
from repro.temporal import levels_from_depth
from tests.oracles import dag_scalar
from tests.oracles.invariants import validate_dag


def width_profile(dag: TaskDAG) -> np.ndarray:
    """Tasks per depth level, from the Kahn pass's level offsets."""
    return np.diff(dag._level_order()[1])


def make_dag(costs, edges, processes=None) -> TaskDAG:
    n = len(costs)
    process = np.zeros(n, dtype=np.int32) if processes is None else processes
    tasks = TaskArrays(
        subiteration=np.zeros(n, dtype=np.int32),
        phase_tau=np.zeros(n, dtype=np.int32),
        obj_type=np.zeros(n, dtype=np.int8),
        locality=np.zeros(n, dtype=np.int8),
        domain=np.asarray(process, dtype=np.int32),
        process=np.asarray(process, dtype=np.int32),
        num_objects=np.ones(n, dtype=np.int64),
        cost=np.asarray(costs, dtype=np.float64),
    )
    return TaskDAG(
        tasks=tasks, edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    )


def fuzz_dag(
    seed: int, n: int | None = None, edges_per_task: int = 4
) -> TaskDAG:
    """A random DAG whose ids are *not* in generation order, with
    duplicate edges, isolated tasks and zero-cost tasks.  Up to
    ``edges_per_task * n`` edges are drawn, so a large value on a small
    ``n`` gives a wide DAG made mostly of duplicate edges."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 120))
    m = int(rng.integers(0, edges_per_task * n))
    a, b = rng.integers(0, n, (2, m))
    keep = a != b
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    # Leave the last few hidden ranks untouched: isolated tasks.
    isolated = int(rng.integers(0, max(1, n // 4)))
    keep = hi < n - isolated
    edges = np.stack([lo[keep], hi[keep]], axis=1)
    if len(edges):
        edges = np.concatenate([edges, edges[rng.integers(0, len(edges), 5)]])
    relabel = rng.permutation(n)
    costs = rng.uniform(0.0, 5.0, n)
    costs[rng.random(n) < 0.2] = 0.0
    return make_dag(costs, relabel[edges], rng.integers(0, 3, n))


SEEDS = range(40)


class TestAgainstScalarOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bottom_levels_cp_and_width(self, seed):
        dag = fuzz_dag(seed)
        cp, bl = dag.critical_path()
        want_cp, want_bl = dag_scalar.critical_path(dag)
        assert cp == want_cp
        assert bl.dtype == want_bl.dtype and np.array_equal(bl, want_bl)
        width = width_profile(dag)
        want_width = dag_scalar.width_profile(dag)
        assert width.dtype == want_width.dtype
        assert np.array_equal(width, want_width)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_topological_order_is_grouped_by_depth(self, seed):
        dag = fuzz_dag(seed)
        order = dag.topological_order()
        assert np.array_equal(np.sort(order), np.arange(dag.num_tasks))
        pos = np.empty(dag.num_tasks, dtype=np.int64)
        pos[order] = np.arange(dag.num_tasks)
        assert np.all(pos[dag.edges[:, 0]] < pos[dag.edges[:, 1]])
        depth = dag_scalar.depths(dag)[order]
        assert np.all(np.diff(depth) >= 0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_in_degrees_with_and_without_predecessor_csr(self, seed):
        dag = fuzz_dag(seed)
        want = dag_scalar.in_degrees(dag)
        dag.successors_csr()
        got = dag.in_degrees()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.flags.writeable
        got[:] = -1  # a fresh array, not a view of a cached CSR
        assert np.array_equal(dag.in_degrees(), want)

    def test_empty_dag(self):
        dag = make_dag([], [])
        cp, bl = dag.critical_path()
        assert cp == 0.0 and bl.shape == (0,)
        assert dag.topological_order().shape == (0,)
        assert width_profile(dag).shape == (0,)
        assert width_profile(dag).dtype == np.int64
        validate_dag(dag)

    def test_single_task(self):
        dag = make_dag([2.5], [])
        cp, bl = dag.critical_path()
        assert cp == 2.5 and bl.tolist() == [2.5]
        assert dag.topological_order().tolist() == [0]
        assert width_profile(dag).tolist() == [1]

    def test_all_zero_cost(self):
        dag = make_dag([0.0, 0.0, 0.0], [[2, 0], [0, 1]])
        cp, bl = dag.critical_path()
        assert cp == 0.0 and not bl.any()
        assert dag.topological_order().tolist() == [2, 0, 1]

    @pytest.mark.parametrize(
        "edges", [[[0, 1], [1, 0]], [[0, 1], [1, 2], [2, 3], [3, 1]]]
    )
    def test_cycle_raises(self, edges):
        dag = make_dag(np.ones(5), edges)
        for query in (
            dag.topological_order, dag.critical_path,
            lambda: width_profile(dag), lambda: validate_dag(dag),
        ):
            with pytest.raises(
                ValueError, match="^task graph contains a cycle$"
            ):
                query()


def trace_of(rows, num_processes) -> Trace:
    """``rows`` are ``(process, start, end)``."""
    rows = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    return Trace(
        process=rows[:, 0].astype(np.int32),
        worker=np.zeros(len(rows), dtype=np.int32),
        start=rows[:, 1].copy(),
        end=rows[:, 2].copy(),
        num_processes=num_processes,
        cores_per_process=4,
    )


class TestActiveIntervals:
    def assert_matches_oracle(self, trace):
        for p in range(trace.num_processes):
            got = trace.process_active_intervals(p)
            want = dag_scalar.process_active_intervals(trace, p)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert (
            trace.total_process_idle_fraction()
            == dag_scalar.total_process_idle_fraction(trace)
        )

    def test_touching_intervals(self):
        end = 1.0
        trace = trace_of(
            [
                (0, 0.0, end),
                (0, end, 2.0),  # s == prev_end: merges
                (0, 2.0 + 1e-12, 3.0),  # s == prev_end + 1e-12: merges
                (0, 3.0 + 1e-9, 4.0),  # past the tolerance: a new interval
                (1, 0.5, 0.75),
            ],
            num_processes=2,
        )
        assert trace.process_active_intervals(0).tolist() == [
            [0.0, 3.0], [3.0 + 1e-9, 4.0]
        ]
        self.assert_matches_oracle(trace)

    def test_zero_duration_and_nested_tasks(self):
        trace = trace_of(
            [
                (0, 0.0, 0.0),
                (0, 0.0, 5.0),
                (0, 1.0, 2.0),  # nested: must not shorten the interval
                (0, 4.0, 4.0),
                (0, 7.0, 7.0),  # zero-length interval of its own
                (0, 9.0, 9.5),
            ],
            num_processes=1,
        )
        assert trace.process_active_intervals(0).tolist() == [
            [0.0, 5.0], [7.0, 7.0], [9.0, 9.5]
        ]
        self.assert_matches_oracle(trace)

    def test_process_without_tasks(self):
        trace = trace_of([(0, 0.0, 4.0), (2, 1.0, 2.0)], num_processes=3)
        ivals = trace.process_active_intervals(1)
        assert ivals.shape == (0, 2)
        assert trace.process_idle_time(1) == trace.makespan == 4.0
        self.assert_matches_oracle(trace)

    @pytest.mark.parametrize("seed", range(20))
    def test_simulated_traces(self, seed):
        dag = fuzz_dag(seed)
        for cores in (1, 3):
            trace = simulate(dag, ClusterConfig(3, cores), scheduler="cp")
            self.assert_matches_oracle(trace)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_interval_soup(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 200))
        start = np.round(rng.uniform(0, 20, k), 1)  # many exact ties
        dur = np.round(rng.uniform(0, 1.5, k), 1)
        rows = np.stack([rng.integers(0, 4, k), start, start + dur], axis=1)
        self.assert_matches_oracle(trace_of(rows, num_processes=5))


@pytest.fixture
def gathers(monkeypatch):
    """Frontier sizes of every ``_gather_rows`` call: the level pass
    makes one per depth level, the bottom-level sweep one per level but
    the deepest."""
    sizes = []
    real = dag_module._gather_rows

    def counting(xadj, adj, rows):
        sizes.append(len(rows))
        return real(xadj, adj, rows)

    monkeypatch.setattr(dag_module, "_gather_rows", counting)
    return sizes


class TestComputedOncePerDag:
    def test_simulate_and_metrics_share_one_level_pass(self, gathers):
        dag = fuzz_dag(7)
        depth = len(dag_scalar.width_profile(dag))
        trace = simulate(dag, ClusterConfig(3, 2), scheduler="cp")
        assert len(gathers) == 2 * depth - 1
        metrics = schedule_metrics(dag, trace)
        width_profile(dag)
        validate_dag(dag)
        simulate(dag, ClusterConfig(3, 1), scheduler="cp")
        assert len(gathers) == 2 * depth - 1
        assert metrics.critical_path == dag_scalar.critical_path(dag)[0]

    def test_cached_arrays_are_read_only(self):
        dag = fuzz_dag(3)
        cp, bl = dag.critical_path()
        assert dag.critical_path()[1] is bl
        for arr in (bl, dag.topological_order()):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_cache_is_not_part_of_equality(self):
        warm, cold = fuzz_dag(5), fuzz_dag(5)
        warm.critical_path()
        assert cold._levels is None and cold._bottom is None
        assert warm.tasks.cost.flags.writeable  # inputs left alone
        assert np.array_equal(warm.edges, cold.edges)
        assert "_bottom" not in repr(warm) and "_levels" not in repr(warm)

    def test_stage_round_trip_starts_cold(self):
        dag = fuzz_dag(11)
        want = dag.critical_path()
        arrays, meta = TaskGraphStage.pack(dag)
        cold_arrays, cold_meta = TaskGraphStage.pack(fuzz_dag(11))
        assert sorted(arrays) == sorted(cold_arrays) and meta == cold_meta
        assert all(np.array_equal(arrays[k], cold_arrays[k]) for k in arrays)
        back = TaskGraphStage.unpack(arrays, meta, None, None, None)
        assert back._levels is None and back._bottom is None
        assert back._succ is None
        got = back.critical_path()
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


def test_level_pass_iterates_once_per_depth_level(gathers):
    """A count, not a wall time: the Kahn pass gathers the frontier's
    successor rows once per depth level, so a per-task loop cannot
    creep back unnoticed."""
    mesh = cylinder_mesh(max_depth=9)
    tau = levels_from_depth(mesh)
    decomp = make_decomposition(mesh, tau, 32, 8, strategy="MC_TL", seed=1)
    dag = generate_task_graph(mesh, tau, decomp, scheme="heun", iterations=4)

    depth = len(width_profile(dag))
    assert dag.num_tasks > 50 * depth
    assert len(gathers) == depth
    assert sum(gathers) == dag.num_tasks
    dag.critical_path()
    assert len(gathers) == 2 * depth - 1
