"""End-to-end chaos storms against the serve tier.

Each test drives the real daemon (children and all) through one
overload/failure storm and asserts the exactly-once invariants the
spool state machine guarantees:

* a poison-job storm dead-letters every poison job exactly once, opens
  its breaker, and an operator ``retry`` after the fix really runs it;
* a submit flood against a bounded spool admits exactly the budget and
  loses/duplicates nothing;
* synthetic ``HARD`` memory pressure arriving *mid-job* makes the
  running child shed its in-memory store tier — recorded in
  provenance, results bit-identical to a calm run;
* a drain request mid-job requeues the running job cleanly (no loss,
  no duplicate, scratch reclaimed).

These use in-process daemons (signals via :meth:`request_drain`); the
real-SIGTERM/double-SIGTERM subprocess coverage lives in
``tests/test_service.py``.
"""

from __future__ import annotations

import threading
import time
import warnings

import pytest

from repro.resilience.errors import CircuitOpenError, QueueFull
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.sentinel import SentinelConfig
from repro.runtime.executor import RetryPolicy
from repro.service import (
    JobRequest,
    QueueLimits,
    ServeDaemon,
    ServiceClient,
    SpoolQueue,
)
from tests.test_overload import CHEAP, make_sentinel


def wait_for(predicate, timeout=30.0, poll=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError(f"timed out waiting for {what}")


def assert_exactly_once(queue: SpoolQueue, job_id: str, state: str) -> None:
    """The job exists in exactly one lifecycle state (the given one)."""
    placements = [s for s, ids in queue.jobs().items() if job_id in ids]
    assert placements == [state], (
        f"job {job_id} expected only in {state!r}, found in {placements}"
    )


class TestPoisonStorm:
    def test_storm_deadletters_exactly_once_then_operator_recovers(
        self, tmp_path
    ):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_ids = [
            client.submit(
                "characteristics",
                options={**CHEAP, "seed": i},
                through="mesh",
            )
            for i in range(3)
        ]
        # Every attempt of every job is killed right after its first
        # completed stage: deterministic poison.  The daemon must spot
        # the repeated same-stage death and quarantine after TWO kills
        # instead of burning the whole retry budget.
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    kind="transient", rate=1.0, first_attempt_only=False
                )
            ],
            seed=11,
        )
        daemon = ServeDaemon(
            spool,
            store_root=tmp_path / "store",
            retry=RetryPolicy(max_retries=5, backoff=0.0),
            watchdog=60.0,
            poll=0.05,
            fault_plan=plan,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            done = daemon.serve_forever(max_jobs=3, idle_timeout=20.0)
        assert done == 3
        assert plan.injected["worker_death"] == 6  # 2 kills per job

        queue = daemon.queue
        assert sorted(queue.deadletter_list()) == sorted(job_ids)
        for job_id in job_ids:
            assert_exactly_once(queue, job_id, "deadletter")
            shown = queue.deadletter_show(job_id)
            history = shown["history"]
            assert [h["outcome"] for h in history] == ["death", "death"]
            assert {h["stage_reached"] for h in history} == {"mesh"}
            assert "dead-lettered" in shown["error"]
            # Forensic bundle preserves the last streamed progress.
            assert (
                shown["bundle"]["progress.json"]["stages"][0]["stage"]
                == "mesh"
            )
            # Scratch reclaimed despite the quarantine.
            assert not queue.workdir(job_id).exists()

        # Breakers open: resubmission of any poisoned digest fast-fails.
        with pytest.raises(CircuitOpenError) as err:
            client.submit(
                "characteristics",
                options={**CHEAP, "seed": 0},
                through="mesh",
            )
        assert err.value.job_id == job_ids[0]

        # Operator closes one breaker; with the fault fixed (no plan)
        # the re-admitted job runs to completion.
        assert queue.deadletter_retry(job_ids[0])
        fixed = ServeDaemon(
            spool,
            store_root=tmp_path / "store",
            retry=RetryPolicy(max_retries=1, backoff=0.0),
            poll=0.05,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fixed.serve_forever(max_jobs=1, idle_timeout=20.0)
        status = client.wait(job_ids[0], timeout=10.0)
        assert status.state == "done"
        assert_exactly_once(queue, job_ids[0], "done")


class TestSubmitFlood:
    def test_flood_admits_budget_and_loses_nothing(self, tmp_path):
        spool = tmp_path / "spool"
        queue = SpoolQueue(
            spool, limits=QueueLimits(max_pending=3, retry_after=0.05)
        )
        admitted: list[str] = []
        rejected = 0
        for i in range(12):
            try:
                admitted.append(
                    queue.submit(
                        JobRequest(
                            "characteristics",
                            options={**CHEAP, "seed": i},
                            through="mesh",
                        )
                    )
                )
            except QueueFull as exc:
                rejected += 1
                assert exc.retry_after > 0
        assert len(admitted) == 3 and rejected == 9
        assert queue.pending_load()[0] == 3

        daemon = ServeDaemon(
            spool,
            store_root=tmp_path / "store",
            retry=RetryPolicy(max_retries=1, backoff=0.0),
            poll=0.05,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            done = daemon.serve_forever(max_jobs=3, idle_timeout=20.0)
        assert done == 3
        for job_id in admitted:
            assert_exactly_once(queue, job_id, "done")
        # Everything accounted for: nothing pending, nothing stuck.
        jobs = queue.jobs()
        assert jobs["pending"] == [] and jobs["running"] == []
        assert sorted(jobs["done"]) == sorted(admitted)


class TestPressureMidJob:
    def test_hard_pressure_sheds_store_tier_bit_identically(
        self, tmp_path, monkeypatch
    ):
        # The child lingers after each stage, so the snapshot lands
        # while stage boundaries are still ahead of it, however fast
        # the child started.
        monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "0.5")
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_id = client.submit(
            "characteristics", options=CHEAP, through="schedule"
        )
        signals = {"mem": 2**40}
        sentinel = make_sentinel(
            SentinelConfig(mem_soft_bytes=2**30, mem_hard_bytes=2**20),
            signals,
        )
        daemon = ServeDaemon(
            spool,
            store_root=tmp_path / "store",
            retry=RetryPolicy(max_retries=1, backoff=0.0),
            poll=0.05,
            sentinel=sentinel,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runner = threading.Thread(
                target=daemon.serve_forever,
                kwargs={"max_jobs": 1, "idle_timeout": 30.0},
            )
            runner.start()
            try:
                # The claim happened under OK; now the box tips over.
                # The main loop publishes the HARD snapshot and the
                # running child observes it at its next stage boundary.
                wait_for(
                    lambda: (s := client.status(job_id)) is not None
                    and s.state == "running",
                    what="job to start running",
                )
                signals["mem"] = 2**10
            finally:
                runner.join(timeout=120.0)
            assert not runner.is_alive()
        status = client.wait(job_id, timeout=10.0)
        assert status.state == "done"
        assert any("shed in-memory store" in d for d in status.degradation)

        # Bit-identity: a calm run of the identical request produces
        # the same content-addressed digests and metrics.
        monkeypatch.delenv("REPRO_SERVE_STAGE_DELAY")
        calm_spool = tmp_path / "calm"
        calm = ServiceClient(calm_spool)
        calm_id = calm.submit(
            "characteristics", options=CHEAP, through="schedule"
        )
        calm_daemon = ServeDaemon(
            calm_spool,
            store_root=tmp_path / "calm-store",
            retry=RetryPolicy(max_retries=1, backoff=0.0),
            poll=0.05,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            calm_daemon.serve_forever(max_jobs=1, idle_timeout=30.0)
        calm_status = calm.wait(calm_id, timeout=10.0)
        assert calm_status.state == "done"
        assert not calm_status.degradation
        assert [s["digest"] for s in status.stages] == [
            s["digest"] for s in calm_status.stages
        ]
        assert status.result.get("metrics") == calm_status.result.get(
            "metrics"
        )


class TestDrainMidJob:
    def test_drain_requeues_running_job_exactly_once(
        self, tmp_path, monkeypatch
    ):
        # The child lingers after each stage, giving the drain a
        # deterministic mid-job window.
        monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "5.0")
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_id = client.submit(
            "characteristics", options=CHEAP, through="levels"
        )
        daemon = ServeDaemon(
            spool,
            store_root=tmp_path / "store",
            retry=RetryPolicy(max_retries=1, backoff=0.0),
            poll=0.05,
            drain_grace=0.1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runner = threading.Thread(
                target=daemon.serve_forever,
                kwargs={"idle_timeout": 60.0},
            )
            runner.start()
            try:
                wait_for(
                    lambda: (s := client.status(job_id)) is not None
                    and s.state == "running"
                    and len(s.stages) >= 1,
                    what="child mid-job (first stage streamed)",
                )
            finally:
                daemon.request_drain()
                runner.join(timeout=60.0)
            assert not runner.is_alive()
        assert daemon.draining and not daemon.forced
        assert daemon._requeued_on_drain == 1
        # Finish-or-requeue: the job went back to pending, exactly
        # once, with its scratch reclaimed — ready for the next daemon.
        assert_exactly_once(daemon.queue, job_id, "pending")
        assert not daemon.queue.workdir(job_id).exists()
        assert not daemon.queue._status_path(job_id).exists()

        # And the next (calm) daemon picks it up and completes it.
        monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "0")
        next_daemon = ServeDaemon(
            spool,
            store_root=tmp_path / "store",
            retry=RetryPolicy(max_retries=1, backoff=0.0),
            poll=0.05,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            next_daemon.serve_forever(max_jobs=1, idle_timeout=30.0)
        assert client.wait(job_id, timeout=10.0).state == "done"

    def test_drain_while_idle_exits_promptly(self, tmp_path):
        daemon = ServeDaemon(
            tmp_path / "spool",
            store_root=tmp_path / "store",
            poll=0.05,
        )
        runner = threading.Thread(target=daemon.serve_forever)
        runner.start()
        try:
            wait_for(
                (tmp_path / "spool" / "health" / "ready.json").exists,
                what="daemon to report ready",
            )
        finally:
            daemon.request_drain()
        runner.join(timeout=10.0)
        assert not runner.is_alive()
        assert daemon.draining and not daemon.forced
