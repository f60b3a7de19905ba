"""Acceptance tests for the resilience layer, end to end.

The three contracts:

1. a threaded campaign with seeded transient failures and NaN
   poisoning completes via retry + rollback and matches the fault-free
   conserved totals to float tolerance;
2. a campaign checkpointed, killed and resumed reproduces the
   uninterrupted campaign's result;
3. on a fault-free run an armed executor does exactly the work of a
   bare one (counted, not timed).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.resilience import (
    FaultPlan,
    FaultSpec,
    GuardConfig,
    PhysicsGuardError,
)
from repro.runtime import RetryPolicy, ThreadedExecutor
from repro.solver import blast_wave
from repro.solver.driver import SimulationDriver


def _driver(mesh, U0, **kw):
    kw.setdefault("num_domains", 6)
    kw.setdefault("num_processes", 3)
    kw.setdefault("strategy", "MC_TL")
    kw.setdefault("seed", 0)
    return SimulationDriver(mesh, U0, **kw)


ARMED = dict(
    # The drift bound must sit above the physical boundary outflow of
    # the small open-domain cube (see chaos_study); corruption is
    # caught by the finite checks.
    guard=GuardConfig(max_drift=1e-4, max_consecutive_rollbacks=5),
    retry=RetryPolicy(max_retries=3, backoff=0.0),
    watchdog=30.0,
)


class TestChaosCampaign:
    def test_faulty_campaign_matches_fault_free_totals(self, small_cube_mesh):
        """Acceptance contract 1: retry absorbs transients, rollback
        absorbs NaN poisoning, and the physics ends up where the
        fault-free campaign ends up."""
        mesh = small_cube_mesh
        U0 = blast_wave(mesh)
        iters = 4

        ref = _driver(mesh, U0, executor="threaded", **ARMED).run(iters)
        assert ref.health.rollbacks == 0

        plan = FaultPlan(
            specs=(
                FaultSpec("transient", 0.05),
                FaultSpec("poison", 0.01),
            ),
            seed=1,
        )
        chaotic = _driver(
            mesh, U0, executor="threaded", fault_plan=plan, **ARMED
        ).run(iters)

        assert plan.injected["transient"] > 0
        assert plan.injected["poison"] > 0
        assert chaotic.health.retries >= plan.injected["transient"]
        assert chaotic.health.rollbacks > 0  # poisons forced rollbacks
        assert len(chaotic.records) == iters

        got = chaotic.state.conserved_total(mesh)
        want = ref.state.conserved_total(mesh)
        for c in (0, 3):  # mass, energy
            assert got[c] == pytest.approx(want[c], rel=1e-9)

    def test_guard_gives_up_with_diagnostic(self, small_cube_mesh):
        """Persistent corruption (poison on every round) exhausts the
        rollback budget and surfaces a diagnostic PhysicsGuardError."""
        mesh = small_cube_mesh
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "poison", 1.0,
                    first_attempt_only=False, first_round_only=False,
                ),
            ),
            seed=0,
        )
        drv = _driver(
            mesh,
            blast_wave(mesh),
            executor="threaded",
            fault_plan=plan,
            guard=GuardConfig(max_consecutive_rollbacks=2),
        )
        with pytest.raises(PhysicsGuardError, match="consecutive") as err:
            drv.run(3)
        assert err.value.violations  # the full history rides along
        assert any("non-finite" in v for v in err.value.violations)

    def test_unguarded_faults_propagate(self, small_cube_mesh):
        """Without a guard, an unrecoverable fault raises instead of
        silently looping."""
        mesh = small_cube_mesh
        plan = FaultPlan(
            specs=(
                FaultSpec("transient", 1.0, first_attempt_only=False),
            ),
            seed=0,
        )
        drv = _driver(
            mesh,
            blast_wave(mesh),
            executor="threaded",
            fault_plan=plan,
            retry=RetryPolicy(max_retries=1),
        )
        from repro.resilience import TransientError

        with pytest.raises(TransientError):
            drv.run(1)


class TestCheckpointResume:
    def test_kill_and_resume_reproduces_campaign(
        self, small_cube_mesh, tmp_path
    ):
        """Acceptance contract 2: run 8 iterations straight through vs
        5 iterations + "kill" + resume-from-latest + 3 more — state and
        records must agree."""
        mesh = small_cube_mesh
        U0 = blast_wave(mesh)
        kw = dict(checkpoint_every=2, checkpoint_dir=tmp_path / "a")

        straight = _driver(mesh, U0, **kw).run(8)

        drv = _driver(
            mesh, U0, checkpoint_every=2, checkpoint_dir=tmp_path / "b"
        )
        first = drv.run(5)
        del drv  # the "kill": only the on-disk checkpoints survive
        from repro.resilience import find_latest_checkpoint

        latest = find_latest_checkpoint(tmp_path / "b")
        assert latest is not None and "00000004" in latest.name
        resumed_drv = SimulationDriver.from_checkpoint(mesh, latest)
        assert resumed_drv.iteration == 4
        assert resumed_drv.checkpoint_every == 2  # inherited
        resumed = resumed_drv.run(4)

        np.testing.assert_array_equal(
            resumed.state.U, straight.state.U
        )
        np.testing.assert_array_equal(
            resumed.state.acc, straight.state.acc
        )
        tail = straight.records[4:]
        assert [r.iteration for r in resumed.records] == [
            r.iteration for r in tail
        ]
        assert [r.level_changes for r in resumed.records] == [
            r.level_changes for r in tail
        ]
        assert [r.repartitioned for r in resumed.records] == [
            r.repartitioned for r in tail
        ]

    def test_resume_rejects_wrong_mesh(self, small_cube_mesh, tmp_path):
        from repro.mesh import uniform_mesh
        from repro.resilience import CheckpointError

        drv = _driver(
            small_cube_mesh,
            blast_wave(small_cube_mesh),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
        )
        drv.run(1)
        other = uniform_mesh(depth=3)
        with pytest.raises(CheckpointError, match="cells"):
            SimulationDriver.from_checkpoint(
                other, tmp_path / "ckpt_00000001.json"
            )

    def test_checkpoint_records_flagged(self, small_cube_mesh, tmp_path):
        drv = _driver(
            small_cube_mesh,
            blast_wave(small_cube_mesh),
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
        )
        res = drv.run(4)
        assert [r.checkpointed for r in res.records] == [
            False, True, False, True,
        ]
        assert res.health.checkpoints == 2

    def test_configuration_validation(self, small_cube_mesh):
        U0 = blast_wave(small_cube_mesh)
        with pytest.raises(ValueError, match="executor"):
            _driver(small_cube_mesh, U0, executor="mpi")
        with pytest.raises(ValueError, match="threaded"):
            _driver(small_cube_mesh, U0, fault_plan=FaultPlan())
        with pytest.raises(ValueError, match="checkpoint_dir"):
            _driver(small_cube_mesh, U0, checkpoint_every=2)

    def test_watchdog_requires_threaded(self, small_cube_mesh):
        """A serial executor never arms the watchdog: refuse it."""
        U0 = blast_wave(small_cube_mesh)
        with pytest.raises(ValueError, match="threaded"):
            _driver(small_cube_mesh, U0, watchdog=30.0)
        with pytest.raises(ValueError, match="threaded"):
            _driver(small_cube_mesh, U0, executor="serial", watchdog=30.0)

    def test_resume_ignores_legacy_rng_state(
        self, small_cube_mesh, tmp_path
    ):
        """Manifests written before the driver's unused RNG went carry
        its state; they still load and resume bit-exactly."""
        import json

        mesh = small_cube_mesh
        U0 = blast_wave(mesh)
        straight = _driver(mesh, U0).run(3)
        _driver(
            mesh, U0, checkpoint_every=2, checkpoint_dir=tmp_path
        ).run(2)
        manifest = tmp_path / "ckpt_00000002.json"
        data = json.loads(manifest.read_text())
        data["rng_state"] = np.random.default_rng(0).bit_generator.state
        manifest.write_text(json.dumps(data))
        resumed = SimulationDriver.from_checkpoint(mesh, manifest).run(1)
        np.testing.assert_array_equal(resumed.state.U, straight.state.U)
        np.testing.assert_array_equal(resumed.state.acc, straight.state.acc)


class TestResilienceOverhead:
    def test_armed_executor_adds_no_work_on_clean_run(self, cube_dag_mc):
        """Acceptance contract 3: with no fault to absorb, a retry
        policy and a watchdog cost nothing but the monitor thread —
        every task body runs exactly once, no backoff is ever asked
        for, nothing is recorded as wasted, and the monitor is gone
        when ``run()`` returns."""
        delays: list[int] = []

        class CountingPolicy(RetryPolicy):
            def delay(self, retry: int) -> float:
                delays.append(retry)
                return super().delay(retry)

        def run(**kw):
            calls = [0] * cube_dag_mc.num_tasks

            def fn(t):
                calls[t] += 1  # one writer per slot: tasks run once

            result = ThreadedExecutor(cube_dag_mc, 4, 2, fn, **kw).run()
            return calls, result

        bare_calls, bare = run()
        armed_calls, armed = run(
            retry=CountingPolicy(max_retries=2, backoff=0.5), watchdog=60.0
        )

        assert armed_calls == bare_calls == [1] * cube_dag_mc.num_tasks
        assert delays == []
        for result in (bare, armed):
            assert result.health.retries == 0
            assert result.health.total_wasted == 0.0
        assert not any(
            th.name == "repro-watchdog" for th in threading.enumerate()
        )
