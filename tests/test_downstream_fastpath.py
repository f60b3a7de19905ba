"""Differential tests for the downstream hot paths.

The vectorized Algorithm 1 generator and the low-overhead FLUSIM
engine must reproduce their retained seed oracles exactly: task arrays
bit-identical, dependency sets equal up to canonical edge order, and
traces bit-identical — across schemes, iteration counts, schedulers,
cluster shapes, communication models and tie-breaks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flusim import (
    ClusterConfig,
    CommModel,
    simulate,
    simulate_ref,
    trace_differences,
)
from repro.flusim.schedulers import SCHEDULERS
from repro.taskgraph import (
    canonical_edges,
    dag_differences,
    generate_task_graph,
    generate_task_graph_ref,
    verify_dag,
)
from repro.taskgraph.dag import TaskDAG
from tests.oracles import dag_scalar
from tests.test_dag_analytics import fuzz_dag, make_dag

CORES = (1, 3, None)
COMMS = (None, CommModel(latency=0.05, bandwidth=32.0))


def assert_matches_reference(dag, num_processes, scheduler, comms=COMMS):
    """``simulate`` equals ``simulate_ref`` at every core count in
    :data:`CORES`, with and without each communication model."""
    for cores in CORES:
        cluster = ClusterConfig(num_processes, cores)
        for comm in comms:
            kwargs = dict(scheduler=scheduler, comm=comm, seed=7)
            got = simulate(dag, cluster, **kwargs)
            want = simulate_ref(dag, cluster, **kwargs)
            assert trace_differences(got, want) == [], (cores, comm)


class TestTaskGraphEquivalence:
    @pytest.mark.parametrize(
        "scheme,iterations",
        [("euler", 1), ("euler", 3), ("heun", 1), ("heun", 2)],
    )
    def test_matches_reference(
        self, small_cube_mesh, small_cube_tau, cube_decomp_mc,
        scheme, iterations,
    ):
        kwargs = dict(scheme=scheme, iterations=iterations)
        fast = generate_task_graph(
            small_cube_mesh, small_cube_tau, cube_decomp_mc, **kwargs
        )
        ref = generate_task_graph_ref(
            small_cube_mesh, small_cube_tau, cube_decomp_mc, **kwargs
        )
        assert dag_differences(fast, ref) == []
        assert not verify_dag(
            fast, small_cube_mesh, small_cube_tau,
            scheme=scheme, iterations=iterations,
        )

    def test_edges_are_int64(self, cube_dag_mc):
        assert cube_dag_mc.edges.dtype == np.int64

    def test_dag_differences_detects_perturbation(self, cube_dag_mc):
        tasks = cube_dag_mc.tasks
        cost = tasks.cost.copy()
        cost[3] += 1.0
        mutated = TaskDAG(
            tasks=type(tasks)(
                **{
                    f: (cost if f == "cost" else getattr(tasks, f))
                    for f in (
                        "subiteration", "phase_tau", "obj_type", "locality",
                        "domain", "process", "num_objects", "cost", "stage",
                    )
                }
            ),
            edges=cube_dag_mc.edges,
        )
        diffs = dag_differences(mutated, cube_dag_mc)
        assert diffs and "cost" in diffs[0]

    def test_canonical_edges_order_invariant(self, cube_dag_mc):
        edges = cube_dag_mc.edges
        rng = np.random.default_rng(0)
        shuffled = edges[rng.permutation(len(edges))]
        assert np.array_equal(
            canonical_edges(edges), canonical_edges(shuffled)
        )


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_matches_reference(self, cube_dag_mc, scheduler):
        assert_matches_reference(cube_dag_mc, 4, scheduler)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_ties_match_reference(self, scheduler):
        """Zero and equal costs on four processes: completions share
        instants, a task freed at an instant starts at it, and (with a
        latency-only link) message arrivals land on the same instants
        as completions, so every tie-break is compared."""
        rng = np.random.default_rng(3)
        n = 300
        shape = fuzz_dag(3, n=n, edges_per_task=3)
        costs = rng.choice([0.0, 1.0, 1.0, 2.0], n)
        dag = make_dag(costs, shape.edges, rng.integers(0, 4, n))
        trace = simulate(dag, ClusterConfig(4, 1), scheduler=scheduler)
        assert len(np.unique(trace.end)) < n // 3
        assert np.count_nonzero(costs == 0.0) > n // 5
        assert_matches_reference(
            dag, 4, scheduler, comms=COMMS + (CommModel(latency=1.0),)
        )

    def test_cp_matches_reference_on_scalar_bottom_levels(
        self, cube_dag_mc, monkeypatch
    ):
        """``simulate_ref`` asks the DAG for its bottom levels like the
        engine does; here the reference side gets them from the scalar
        oracle instead, so the ``cp`` differential covers them too."""
        ref_dag = TaskDAG(tasks=cube_dag_mc.tasks, edges=cube_dag_mc.edges)
        monkeypatch.setattr(
            ref_dag, "critical_path",
            lambda: dag_scalar.critical_path(ref_dag),
        )
        cluster = ClusterConfig(4, 2)
        got = simulate(cube_dag_mc, cluster, scheduler="cp")
        want = simulate_ref(ref_dag, cluster, scheduler="cp")
        assert ref_dag._bottom is None
        assert trace_differences(got, want) == []
        assert np.array_equal(
            cube_dag_mc.critical_path()[1],
            dag_scalar.critical_path(ref_dag)[1],
        )

    @pytest.mark.parametrize("cores", [1, 3, None])
    def test_comm_model(self, cube_dag_mc, cores):
        comm = CommModel(latency=0.05, bandwidth=32.0)
        cluster = ClusterConfig(4, cores)
        got = simulate(cube_dag_mc, cluster, comm=comm)
        want = simulate_ref(cube_dag_mc, cluster, comm=comm)
        assert trace_differences(got, want) == []

    def test_eager_arrival_inside_the_drain_orders_by_ready_time(self):
        """Under a comm model ``eager`` orders by ready time, not by
        arrival in the drain.  A opens the drain at 0.3; C's message
        lands one ulp later and is queued first; D ends one ulp after
        that and frees E, which is ready at the drain's 0.3 and so
        runs first on P2's one core."""
        third = np.nextafter(0.3, 1.0)  # 0.1 + 0.2
        assert 0.1 + 0.2 == third
        costs = [0.3, 0.1, 1.0, np.nextafter(third, 1.0), 1.0]
        #        A    B    C    D                          E
        dag = make_dag(costs, [[1, 2], [3, 4]], [0, 1, 2, 2, 2])
        cluster = ClusterConfig(3, 1)
        comm = CommModel(latency=0.2)
        got = simulate(dag, cluster, comm=comm)
        assert got.start[4] == 0.3 and got.start[2] > got.start[4]
        want = simulate_ref(dag, cluster, comm=comm)
        assert trace_differences(got, want) == []

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("cores", CORES)
    def test_wide_dag_with_duplicate_edges(self, cores, scheduler):
        """Algorithm 1's DAGs have a handful of successors per task;
        this one has ~100, half of them duplicate edges, so a successor
        is released on the *last* of its repeated decrements."""
        dag = fuzz_dag(0, n=200, edges_per_task=200)
        assert dag.num_edges >= 60 * dag.num_tasks
        unique = len(np.unique(dag.edges, axis=0))
        assert dag.num_edges - unique > 10_000
        cluster = ClusterConfig(3, cores)
        for comm in COMMS:
            got = simulate(dag, cluster, scheduler=scheduler, comm=comm)
            want = simulate_ref(dag, cluster, scheduler=scheduler, comm=comm)
            assert trace_differences(got, want) == []

    def test_random_scheduler_seeded(self, cube_dag_sc):
        cluster = ClusterConfig(4, 2)
        got = simulate(cube_dag_sc, cluster, scheduler="random", seed=11)
        want = simulate_ref(cube_dag_sc, cluster, scheduler="random", seed=11)
        assert trace_differences(got, want) == []

    def test_durations_override(self, cube_dag_mc):
        rng = np.random.default_rng(5)
        dur = rng.uniform(0.1, 4.0, cube_dag_mc.num_tasks)
        cluster = ClusterConfig(4, 2)
        got = simulate(cube_dag_mc, cluster, durations=dur)
        want = simulate_ref(cube_dag_mc, cluster, durations=dur)
        assert trace_differences(got, want) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_durations(self, cube_dag_mc, bad):
        dur = np.ones(cube_dag_mc.num_tasks)
        dur[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            simulate(cube_dag_mc, ClusterConfig(4, 1), durations=dur)

    def test_trace_differences_detects_perturbation(self, cube_dag_mc):
        cluster = ClusterConfig(4, 2)
        a = simulate(cube_dag_mc, cluster)
        b = simulate(cube_dag_mc, cluster)
        b.end[0] += 1.0
        diffs = trace_differences(a, b)
        assert diffs and "end" in diffs[0]
