"""Tests for the threaded task runtime."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.resilience import TaskTimeoutError, TransientError
from repro.runtime import RetryPolicy, ThreadedExecutor, run_iteration_threaded
from repro.runtime.executor import BACKOFF_CAP
from repro.solver import LTSState, TaskDistributedSolver, blast_wave
from repro.solver.timestep import stable_timesteps
from tests.oracles.invariants import validate_schedule
from tests.test_flusim import chain_dag, independent_dag


class TestThreadedExecutor:
    def test_executes_every_task_once(self):
        dag = independent_dag([1.0] * 20, [i % 3 for i in range(20)])
        counts = np.zeros(20, dtype=np.int64)
        lock = threading.Lock()

        def fn(t):
            with lock:
                counts[t] += 1

        result = ThreadedExecutor(dag, 3, 2, fn).run()
        assert np.all(counts == 1)
        assert result.elapsed > 0

    def test_respects_dependencies(self):
        dag = chain_dag([0.0] * 10)
        order = []
        lock = threading.Lock()

        def fn(t):
            with lock:
                order.append(t)

        ThreadedExecutor(dag, 1, 4, fn).run()
        assert order == sorted(order)

    def test_trace_valid(self, cube_dag_mc):
        def fn(t):
            pass

        result = ThreadedExecutor(cube_dag_mc, 4, 2, fn).run()
        validate_schedule(result.trace, cube_dag_mc)

    def test_tasks_run_in_owning_group(self):
        dag = independent_dag([0.0] * 12, [i % 4 for i in range(12)])
        seen = {}
        lock = threading.Lock()

        def fn(t):
            with lock:
                seen[t] = threading.current_thread().name

        ThreadedExecutor(dag, 4, 1, fn).run()
        for t in range(12):
            assert seen[t].startswith(f"repro-worker-p{t % 4}")

    def test_exception_propagates(self):
        dag = chain_dag([0.0, 0.0, 0.0])

        def fn(t):
            if t == 1:
                raise RuntimeError("kernel failure")

        with pytest.raises(RuntimeError, match="kernel failure"):
            ThreadedExecutor(dag, 1, 2, fn).run()

    def test_failure_leaves_no_worker_threads(self):
        """The satellite contract for the pre-resilience failure path:
        the exception propagates from run() and every worker thread
        terminates — no hang, no partial-result object."""
        dag = independent_dag([0.0] * 8, [i % 2 for i in range(8)])

        def fn(t):
            if t == 5:
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            ThreadedExecutor(dag, 2, 2, fn).run()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            alive = [
                th for th in threading.enumerate()
                if th.name.startswith("repro-worker")
            ]
            if not alive:
                break
            time.sleep(0.01)
        assert not alive

    def test_validation_errors(self):
        dag = independent_dag([1.0], [5])
        with pytest.raises(ValueError):
            ThreadedExecutor(dag, 2, 1, lambda t: None)
        with pytest.raises(ValueError):
            ThreadedExecutor(chain_dag([1.0]), 0, 1, lambda t: None)

    def test_empty_dag(self):
        dag = independent_dag([], [])
        result = ThreadedExecutor(dag, 2, 2, lambda t: None).run()
        assert result.trace.makespan == 0.0


class TestParallelSolver:
    def test_matches_serial_execution(
        self, small_cube_mesh, small_cube_tau, cube_decomp_mc
    ):
        """Threaded execution must produce the same physics as the
        serial task loop (deposits commute; everything else is
        ordered by dependencies)."""
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = blast_wave(mesh)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        solver = TaskDistributedSolver(mesh, tau, cube_decomp_mc, dt_min)

        st_serial = LTSState(U0)
        solver.run_iteration(st_serial)

        st_threaded = LTSState(U0)
        run = run_iteration_threaded(
            solver, st_threaded, cores_per_process=2
        )
        np.testing.assert_allclose(
            st_threaded.U, st_serial.U, atol=1e-11
        )
        np.testing.assert_allclose(
            st_threaded.acc, st_serial.acc, atol=1e-11
        )
        validate_schedule(run.result.trace, solver.dag)

    def test_conservation_under_threads(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc
    ):
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = blast_wave(mesh)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        solver = TaskDistributedSolver(mesh, tau, cube_decomp_sc, dt_min)
        st = LTSState(U0)
        c0 = st.conserved_total(mesh)
        run_iteration_threaded(solver, st, cores_per_process=3)
        c1 = st.conserved_total(mesh)
        assert c1[0] == pytest.approx(c0[0], rel=1e-12)
        assert c1[3] == pytest.approx(c0[3], rel=1e-12)

    def test_repeated_iterations_stable(
        self, small_cube_mesh, small_cube_tau, cube_decomp_mc
    ):
        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = blast_wave(mesh)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        solver = TaskDistributedSolver(mesh, tau, cube_decomp_mc, dt_min)
        st = LTSState(U0)
        for _ in range(3):
            run_iteration_threaded(solver, st, cores_per_process=2)
        from repro.solver import pressure

        assert pressure(st.U).min() > 0


class FlakyFn:
    """Task body that fails the first ``fail_counts[t]`` attempts."""

    def __init__(self, fail_counts, exc=TransientError):
        self.fail_counts = dict(fail_counts)
        self.exc = exc
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, t):
        with self.lock:
            self.calls.append(t)
            if self.fail_counts.get(t, 0) > 0:
                self.fail_counts[t] -= 1
                raise self.exc(f"flaky task {t}")


class TestRetryPolicy:
    def test_backoff_schedule(self):
        p = RetryPolicy(backoff=0.3)
        assert p.delay(1) == pytest.approx(0.3)
        assert p.delay(2) == pytest.approx(0.6)
        assert p.delay(3) == BACKOFF_CAP == 1.0  # capped
        assert RetryPolicy(backoff=0.0).delay(5) == 0.0

    def test_retry_recovers_transient_failures(self):
        dag = chain_dag([0.0] * 4)
        fn = FlakyFn({1: 2, 3: 1})
        result = ThreadedExecutor(
            dag, 1, 2, fn, retry=RetryPolicy(max_retries=2)
        ).run()
        assert result.health.retries == 3
        # every task completed exactly once (failed attempts aside)
        done = [t for t in fn.calls]
        assert sorted(set(done)) == [0, 1, 2, 3]
        validate_schedule(result.trace, dag)

    def test_budget_exhaustion_raises(self):
        dag = chain_dag([0.0, 0.0])
        fn = FlakyFn({0: 5})
        with pytest.raises(TransientError, match="flaky task 0"):
            ThreadedExecutor(
                dag, 1, 1, fn, retry=RetryPolicy(max_retries=2)
            ).run()
        assert fn.calls == [0, 0, 0]  # initial + 2 retries, then abort

    def test_non_transient_not_retried(self):
        dag = chain_dag([0.0, 0.0])
        fn = FlakyFn({0: 1}, exc=ValueError)
        with pytest.raises(ValueError):
            ThreadedExecutor(
                dag, 1, 1, fn, retry=RetryPolicy(max_retries=3)
            ).run()
        assert fn.calls == [0]

    def test_wasted_seconds_accounted(self):
        dag = independent_dag([0.0], [0])

        def fn(t):
            if fn.first:
                fn.first = False
                time.sleep(0.02)
                raise TransientError("slow failure")

        fn.first = True
        result = ThreadedExecutor(
            dag, 1, 1, fn, retry=RetryPolicy(max_retries=1)
        ).run()
        assert result.health.total_wasted >= 0.02
        assert result.health.wasted_seconds.shape == (1,)


class TestWatchdog:
    def test_hung_task_raises_named_timeout(self):
        dag = independent_dag([0.0] * 3, [0, 0, 0])
        release = threading.Event()

        def fn(t):
            if t == 1:
                release.wait(10.0)  # hang until released

        ex = ThreadedExecutor(dag, 1, 3, fn, watchdog=0.15)
        t0 = time.monotonic()
        with pytest.raises(TaskTimeoutError) as err:
            ex.run()
        elapsed = time.monotonic() - t0
        release.set()  # let the zombie thread die
        assert elapsed < 5.0  # run() did not hang on the stuck worker
        assert err.value.task == 1
        assert err.value.process == 0
        assert "task 1" in str(err.value)
        assert "0.15" in str(err.value)

    def test_fast_tasks_unaffected(self):
        dag = chain_dag([0.0] * 10)
        result = ThreadedExecutor(
            dag, 1, 2, lambda t: None, watchdog=5.0
        ).run()
        assert result.health.retries == 0
        validate_schedule(result.trace, dag)

    def test_invalid_deadline_rejected(self):
        dag = chain_dag([0.0])
        with pytest.raises(ValueError, match="watchdog"):
            ThreadedExecutor(dag, 1, 1, lambda t: None, watchdog=0.0)


class TestFaultInjectionThreaded:
    def test_injected_transients_recovered_bit_exact(
        self, small_cube_mesh, small_cube_tau, cube_decomp_mc
    ):
        """A threaded iteration under injected pre-body transient
        faults, with retry, matches the fault-free physics."""
        from repro.resilience import FaultPlan, FaultSpec

        mesh, tau = small_cube_mesh, small_cube_tau
        U0 = blast_wave(mesh)
        dt_min = float((stable_timesteps(mesh, U0) / np.exp2(tau)).min())
        solver = TaskDistributedSolver(mesh, tau, cube_decomp_mc, dt_min)

        st_ref = LTSState(U0)
        run_iteration_threaded(solver, st_ref, cores_per_process=2)

        plan = FaultPlan(specs=(FaultSpec("transient", 0.1),), seed=11)
        plan.set_context(0, 0)
        st = LTSState(U0)
        run = run_iteration_threaded(
            solver,
            st,
            cores_per_process=2,
            fault_plan=plan,
            retry=RetryPolicy(max_retries=3),
        )
        assert plan.injected["transient"] > 0
        assert run.result.health.retries == plan.injected["transient"]
        # Deposits commute only up to float addition order, which
        # thread scheduling perturbs — same tolerance as serial-vs-
        # threaded above.
        np.testing.assert_allclose(st.U, st_ref.U, atol=1e-11)
        np.testing.assert_allclose(st.acc, st_ref.acc, atol=1e-11)
