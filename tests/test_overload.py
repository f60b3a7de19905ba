"""Overload-safety tests: the resource sentinel's hysteretic pressure
states, spool admission control and the client's backpressure manners,
the dead-letter quarantine + circuit breakers, graceful degradation
(with bit-identical results), and the stale-spool garbage collection.

The heavier end-to-end chaos storms (poison jobs, submit floods,
drain-under-fire) live in ``tests/test_serve_chaos.py``; here each
mechanism is pinned down in isolation.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import warnings

import pytest

from repro.pipeline.locking import FileLock
from repro.resilience.errors import CircuitOpenError, QueueFull
from repro.resilience.sentinel import (
    PressureState,
    ResourceSentinel,
    SentinelConfig,
)
from repro.runtime.executor import RetryPolicy
from repro.service import (
    JobRequest,
    JobStatus,
    QueueLimits,
    ServeDaemon,
    ServiceClient,
    SpoolQueue,
    read_health,
    stale_spool_files,
    sweep_stale_spool,
)

CHEAP = {"scale": 6, "domains": 6, "processes": 3, "cores": 2}

#: A pid that cannot exist (beyond any sane pid_max).
DEAD_PID = 2**22 + 977


def make_sentinel(config: SentinelConfig, signals: dict) -> ResourceSentinel:
    """A sentinel with fully synthetic, mutable probes."""
    return ResourceSentinel(
        config,
        volumes=("vol",) if "disk" in signals else (),
        mem_probe=lambda: signals.get("mem"),
        disk_probe=lambda _vol: signals.get("disk"),
    )


class TestSentinel:
    def test_state_ordering_and_str(self):
        assert PressureState.HARD > PressureState.SOFT > PressureState.OK
        assert str(PressureState.SOFT) == "SOFT"
        assert not PressureState.OK  # falsy: "no pressure"

    def test_escalation_is_immediate(self):
        signals = {"mem": 1000}
        s = make_sentinel(
            SentinelConfig(mem_soft_bytes=200, mem_hard_bytes=100), signals
        )
        assert s.sample().state == PressureState.OK
        signals["mem"] = 200  # at the soft threshold
        with pytest.warns(RuntimeWarning, match="OK -> SOFT"):
            assert s.sample().state == PressureState.SOFT
        signals["mem"] = 50
        with pytest.warns(RuntimeWarning, match="SOFT -> HARD"):
            sample = s.sample()
        assert sample.state == PressureState.HARD
        assert any("mem available" in r for r in sample.reasons)

    def test_deescalation_needs_hysteresis_clearance(self):
        signals = {"mem": 80}
        s = make_sentinel(
            SentinelConfig(mem_soft_bytes=100, mem_hard_bytes=10), signals
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert s.sample().state == PressureState.SOFT
            # Rises just above the threshold but inside the 10% band:
            # the verdict must stick (no flapping).
            signals["mem"] = 105
            assert s.sample().state == PressureState.SOFT
            # Clears the band (>10% over 100) -> back to OK.
            signals["mem"] = 111
            assert s.sample().state == PressureState.OK

    def test_hard_falls_to_soft_not_straight_to_ok(self):
        signals = {"mem": 50}
        s = make_sentinel(
            SentinelConfig(mem_soft_bytes=200, mem_hard_bytes=100), signals
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert s.sample().state == PressureState.HARD
            signals["mem"] = 150  # clear of hard, still below soft
            assert s.sample().state == PressureState.SOFT

    def test_low_is_bad_signals_disk_and_mem(self):
        signals = {"disk": 10 * 2**30}
        s = make_sentinel(
            SentinelConfig(
                disk_soft_bytes=512 * 2**20, disk_hard_bytes=64 * 2**20
            ),
            signals,
        )
        assert s.sample().state == PressureState.OK
        signals["disk"] = 100 * 2**20
        with pytest.warns(RuntimeWarning, match="disk free"):
            assert s.sample().state == PressureState.SOFT
        signals["disk"] = 2**20
        with pytest.warns(RuntimeWarning):
            assert s.sample().state == PressureState.HARD

    def test_transitions_are_recorded(self):
        signals = {"mem": 50}
        s = make_sentinel(
            SentinelConfig(mem_soft_bytes=200, mem_hard_bytes=100), signals
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s.sample()
            signals["mem"] = 10**6
            s.sample()
            s.sample()
        assert [(a, b) for _, a, b in s.transitions] == [
            ("OK", "HARD"),
            ("HARD", "OK"),
        ]

    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SENTINEL_MEM_SOFT", "1G")
        monkeypatch.setenv("REPRO_SENTINEL_DISK_HARD", "32M")
        cfg = SentinelConfig.from_env()
        assert cfg.mem_soft_bytes == 2**30
        assert cfg.disk_hard_bytes == 32 * 2**20
        assert cfg.disk_soft_bytes == 512 * 2**20  # default kept


class TestAdmissionControl:
    def submit_n(self, queue, n, start=0):
        ids = []
        for i in range(start, start + n):
            ids.append(
                queue.submit(
                    JobRequest("characteristics", options={"seed": i})
                )
            )
        return ids

    def test_depth_bound_rejects_with_retry_after(self, tmp_path):
        queue = SpoolQueue(
            tmp_path, limits=QueueLimits(max_pending=2, retry_after=0.25)
        )
        self.submit_n(queue, 2)
        with pytest.raises(QueueFull) as err:
            self.submit_n(queue, 1, start=2)
        assert err.value.reason == "depth"
        assert err.value.retry_after >= 0.25
        assert err.value.observed == 2 and err.value.limit == 2
        assert "retry after" in str(err.value)

    def test_byte_budget_rejects(self, tmp_path):
        queue = SpoolQueue(
            tmp_path, limits=QueueLimits(max_pending_bytes=64)
        )
        self.submit_n(queue, 1)  # one record already exceeds 64 bytes
        with pytest.raises(QueueFull) as err:
            self.submit_n(queue, 1, start=1)
        assert err.value.reason == "bytes"

    def test_dedup_resubmission_is_always_admitted(self, tmp_path):
        queue = SpoolQueue(tmp_path, limits=QueueLimits(max_pending=1))
        (job_id,) = self.submit_n(queue, 1)
        # Identical request: dedups to the existing job, no rejection.
        assert (
            queue.submit(JobRequest("characteristics", options={"seed": 0}))
            == job_id
        )

    def test_limits_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPOOL_MAX_PENDING", "7")
        monkeypatch.setenv("REPRO_SPOOL_MAX_BYTES", "1M")
        limits = QueueLimits.from_env()
        assert limits.max_pending == 7
        assert limits.max_pending_bytes == 2**20

    @pytest.mark.parametrize(
        "name", ["REPRO_SPOOL_MAX_PENDING", "REPRO_SPOOL_MAX_BYTES"]
    )
    def test_malformed_limit_warns_and_stays_unbounded(
        self, tmp_path, monkeypatch, name
    ):
        # Like REPRO_ARTIFACTS_BUDGET and the sentinel knobs: a typo
        # must not stop even a read-only client from opening the spool.
        monkeypatch.delenv("REPRO_SPOOL_MAX_PENDING", raising=False)
        monkeypatch.delenv("REPRO_SPOOL_MAX_BYTES", raising=False)
        monkeypatch.setenv(name, "abc")
        queue = SpoolQueue(tmp_path)
        with pytest.warns(RuntimeWarning, match=name):
            self.submit_n(queue, 1)
        assert queue.pending_load()[0] == 1

    def test_only_a_submitter_reads_the_limits(self, tmp_path, monkeypatch):
        # The daemon never submits: a malformed admission knob is no
        # concern of its log.  A submitter still warns, once.
        monkeypatch.setenv("REPRO_SPOOL_MAX_PENDING", "abc")
        spool = tmp_path / "spool"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ServeDaemon(
                spool,
                store_root=tmp_path / "store",
                sentinel=make_sentinel(SentinelConfig(), {}),
                poll=0.05,
            ).serve_forever(max_jobs=0, idle_timeout=0.2)
        assert not [w for w in caught if "REPRO_SPOOL" in str(w.message)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ServiceClient(spool).submit("characteristics", options=CHEAP)
        assert [
            w.category
            for w in caught
            if "REPRO_SPOOL_MAX_PENDING" in str(w.message)
        ] == [RuntimeWarning]

    def test_unbounded_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SPOOL_MAX_PENDING", raising=False)
        monkeypatch.delenv("REPRO_SPOOL_MAX_BYTES", raising=False)
        queue = SpoolQueue(tmp_path)
        self.submit_n(queue, 20)
        assert queue.pending_load()[0] == 20

    def test_client_block_honors_retry_after(self, tmp_path):
        queue = SpoolQueue(
            tmp_path, limits=QueueLimits(max_pending=1, retry_after=0.05)
        )
        client = ServiceClient(queue, rng=random.Random(7))
        first = client.submit("characteristics", options={"seed": 0})

        def drain():
            time.sleep(0.2)
            claimed = queue.claim_next()
            assert claimed is not None
            queue.finish(
                claimed[0],
                JobStatus(job_id=claimed[0], state="done", result={}),
            )

        t = threading.Thread(target=drain)
        t.start()
        try:
            # Rejected at first (pending full), admitted after the
            # drain thread frees the slot — within the timeout.
            job_id = client.submit(
                "characteristics",
                options={"seed": 1},
                block=True,
                timeout=10.0,
            )
        finally:
            t.join()
        assert job_id != first
        assert queue.pending_load()[0] == 1

    def test_client_nonblocking_reraises(self, tmp_path):
        queue = SpoolQueue(tmp_path, limits=QueueLimits(max_pending=1))
        client = ServiceClient(queue)
        client.submit("characteristics", options={"seed": 0})
        with pytest.raises(QueueFull):
            client.submit("characteristics", options={"seed": 1})

    def test_client_block_times_out(self, tmp_path):
        queue = SpoolQueue(
            tmp_path, limits=QueueLimits(max_pending=1, retry_after=0.05)
        )
        client = ServiceClient(queue, rng=random.Random(3))
        client.submit("characteristics", options={"seed": 0})
        t0 = time.monotonic()
        with pytest.raises(QueueFull):
            client.submit(
                "characteristics",
                options={"seed": 1},
                block=True,
                timeout=0.3,
            )
        assert time.monotonic() - t0 < 5.0


class TestDeadLetterTier:
    def quarantine_one(self, tmp_path) -> tuple[SpoolQueue, str]:
        queue = SpoolQueue(tmp_path)
        request = JobRequest("characteristics", options=dict(CHEAP))
        job_id = queue.submit(request)
        queue.claim_next()
        workdir = queue.workdir(job_id)
        workdir.mkdir(parents=True)
        (workdir / "progress.json").write_text(
            json.dumps({"stages": [{"stage": "mesh"}]})
        )
        (workdir / "error.json").write_text(
            json.dumps({"kind": "WorkerDeath", "message": "boom"})
        )
        status = JobStatus(
            job_id=job_id,
            state="running",
            request=request.to_dict(),
            attempts=3,
            error="boom [dead-lettered: retry budget exhausted]",
            error_kind="WorkerDeath",
            history=[
                {"attempt": 1, "outcome": "death", "exit_code": -9},
                {"attempt": 2, "outcome": "death", "exit_code": -9},
            ],
        )
        queue.deadletter(job_id, status, workdir=workdir)
        return queue, job_id

    def test_entry_and_forensic_bundle(self, tmp_path):
        queue, job_id = self.quarantine_one(tmp_path)
        assert queue.deadletter_list() == [job_id]
        assert queue.status(job_id).state == "deadletter"
        shown = queue.deadletter_show(job_id)
        assert shown["error_kind"] == "WorkerDeath"
        assert [h["outcome"] for h in shown["history"]] == ["death", "death"]
        assert shown["bundle"]["progress.json"]["stages"][0]["stage"] == "mesh"
        assert shown["bundle"]["error.json"]["message"] == "boom"

    def test_breaker_fast_fails_resubmission(self, tmp_path):
        queue, job_id = self.quarantine_one(tmp_path)
        request = JobRequest("characteristics", options=dict(CHEAP))
        assert queue._job_path("deadletter", job_id).exists()
        with pytest.raises(CircuitOpenError) as err:
            queue.submit(request)
        assert err.value.job_id == job_id
        assert job_id in err.value.entry  # names the evidence file
        assert "deadletter retry|purge" in str(err.value)

    def test_retry_closes_breaker_and_readmits(self, tmp_path):
        queue, job_id = self.quarantine_one(tmp_path)
        assert queue.deadletter_retry(job_id)
        assert queue.deadletter_list() == []
        assert not queue._job_path("deadletter", job_id).exists()
        assert queue.status(job_id).state == "pending"
        assert not queue._bundle_path(job_id).exists()

    def test_purge_discards_evidence(self, tmp_path):
        queue, job_id = self.quarantine_one(tmp_path)
        assert queue.deadletter_purge() == [job_id]
        assert queue.deadletter_list() == []
        assert queue.status(job_id) is None
        # Breaker closed: the request is submittable again.
        queue.submit(JobRequest("characteristics", options=dict(CHEAP)))

    def test_client_wait_treats_deadletter_as_terminal(self, tmp_path):
        queue, job_id = self.quarantine_one(tmp_path)
        client = ServiceClient(queue)
        status = client.wait(job_id, timeout=1.0)
        assert status.state == "deadletter"
        from repro.resilience.errors import JobFailedError

        with pytest.raises(JobFailedError, match="dead-lettered"):
            client.result(job_id, timeout=1.0)


class TestRecoverSerialization:
    def test_loser_skips_while_lock_held(self, tmp_path):
        queue = SpoolQueue(tmp_path)
        job_id = queue.submit(JobRequest("characteristics"))
        queue.claim_next()
        queue.write_status(
            JobStatus(
                job_id=job_id,
                state="running",
                worker={"daemon_pid": DEAD_PID},
            )
        )
        lock = FileLock(queue.root / ".recover.lock")
        assert lock.try_acquire()
        try:
            assert queue.recover_orphans() == []  # loser: lock held
        finally:
            lock.release()
        assert queue.recover_orphans() == [job_id]  # winner sweeps
        assert queue.status(job_id).state == "pending"


class TestStaleSpoolSweep:
    def test_classification_and_sweep(self, tmp_path):
        queue = SpoolQueue(tmp_path)
        # Torn atomic writes: dead pid -> stale, our pid -> live.
        dead_tmp = tmp_path / "pending" / f"x.json.tmp{DEAD_PID}"
        dead_tmp.write_text("{}")
        live_tmp = tmp_path / "pending" / f"y.json.tmp{os.getpid()}"
        live_tmp.write_text("{}")
        # Orphan workdir: no running entry at all.
        orphan = queue.workdir("feedfacefeedfacefeedface")
        orphan.mkdir(parents=True)
        (orphan / "progress.json").write_text("{}")
        # Workdir of a genuinely running job owned by a live pid.
        job_id = queue.submit(JobRequest("characteristics"))
        queue.claim_next()
        queue.write_status(
            JobStatus(
                job_id=job_id,
                state="running",
                worker={"daemon_pid": os.getpid()},
            )
        )
        busy = queue.workdir(job_id)
        busy.mkdir(parents=True)

        stale = stale_spool_files(tmp_path)
        assert dead_tmp in stale and orphan in stale
        assert live_tmp not in stale and busy not in stale

        # Dry run reports without removing.
        names = sweep_stale_spool(tmp_path, remove=False)
        assert dead_tmp.name in names and orphan.name in names
        assert dead_tmp.exists() and orphan.exists()

        swept = sweep_stale_spool(tmp_path)
        assert sorted(swept) == sorted(names)
        assert not dead_tmp.exists() and not orphan.exists()
        assert live_tmp.exists() and busy.exists()

    def test_dead_daemon_workdir_is_swept(self, tmp_path):
        queue = SpoolQueue(tmp_path)
        job_id = queue.submit(JobRequest("characteristics"))
        queue.claim_next()
        queue.write_status(
            JobStatus(
                job_id=job_id,
                state="running",
                worker={"daemon_pid": DEAD_PID},
            )
        )
        workdir = queue.workdir(job_id)
        workdir.mkdir(parents=True)
        assert workdir in stale_spool_files(tmp_path)

    def test_gc_cli_covers_spool(self, tmp_path, capsys):
        from repro.cli import main

        queue = SpoolQueue(tmp_path / "spool")
        (queue.root / "failed" / f"z.json.tmp{DEAD_PID}").write_text("{}")
        rc = main(["gc", "--spool", str(queue.root), "--dry-run"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "would remove 1 stale spool file(s)/dir(s)" in out
        assert (queue.root / "failed" / f"z.json.tmp{DEAD_PID}").exists()
        rc = main(["gc", "--spool", str(queue.root)])
        assert rc == 0
        assert not (
            queue.root / "failed" / f"z.json.tmp{DEAD_PID}"
        ).exists()
        # The spool is the only thing gc sweeps, so it is required.
        with pytest.raises(SystemExit) as exc:
            main(["gc"])
        assert exc.value.code != 0


class TestDaemonDegradation:
    def run_one(self, tmp_path, tag, sentinel=None, **daemon_over):
        spool = tmp_path / f"spool-{tag}"
        client = ServiceClient(spool)
        job_id = client.submit("characteristics", options=CHEAP, through="levels")
        kwargs = dict(
            store_root=tmp_path / f"store-{tag}",
            retry=RetryPolicy(max_retries=1, backoff=0.0),
            watchdog=60.0,
            poll=0.05,
        )
        kwargs.update(daemon_over)
        daemon = ServeDaemon(spool, sentinel=sentinel, **kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            daemon.serve_forever(max_jobs=1, idle_timeout=20.0)
        return daemon, client.wait(job_id, timeout=10.0)

    def test_soft_pressure_is_bit_identical(self, tmp_path):
        """A job claimed under SOFT pressure computes the same digests
        and metrics as an unpressured one."""
        signals = {"mem": 10}
        soft = make_sentinel(SentinelConfig(mem_soft_bytes=100), signals)
        _, degraded = self.run_one(tmp_path, "soft", sentinel=soft)
        assert degraded.state == "done"
        assert degraded.pressure["state"] == "SOFT"

        _, clean = self.run_one(
            tmp_path,
            "clean",
            sentinel=make_sentinel(SentinelConfig(), {}),
        )
        assert clean.state == "done"
        assert not clean.degradation
        # Bit-identical: same content-addressed digests, same metrics.
        assert [s["digest"] for s in degraded.stages] == [
            s["digest"] for s in clean.stages
        ]
        assert degraded.result.get("metrics") == clean.result.get("metrics")

    def test_hard_pressure_pauses_claiming(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_id = client.submit("characteristics", options=CHEAP, through="mesh")
        hard = make_sentinel(
            SentinelConfig(mem_soft_bytes=100, mem_hard_bytes=50),
            {"mem": 10},
        )
        daemon = ServeDaemon(
            spool,
            store_root=tmp_path / "store",
            sentinel=hard,
            poll=0.05,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            done = daemon.serve_forever(max_jobs=1, idle_timeout=0.5)
        assert done == 0
        assert client.status(job_id).state == "pending"  # untouched
        health = read_health(spool)
        assert health["pressure"]["state"] == "HARD"
        assert not health["ready"]  # HARD sheds readiness

    def test_soft_halves_worker_fleet(self, tmp_path):
        signals = {"disk": 2**30}
        daemon = ServeDaemon(
            tmp_path,
            workers=4,
            sentinel=make_sentinel(
                SentinelConfig(
                    disk_soft_bytes=512 * 2**20, disk_hard_bytes=64 * 2**20
                ),
                signals,
            ),
        )

        def target():
            return daemon._target_workers(daemon._sample_pressure().state)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert target() == 4
            signals["disk"] = 100 * 2**20
            assert target() == 2
            signals["disk"] = 2**20
            assert target() == 0
        single = ServeDaemon(
            tmp_path, sentinel=make_sentinel(SentinelConfig(), {})
        )
        assert single._target_workers(PressureState.SOFT) == 1


class TestHealthSurface:
    def test_daemon_writes_health_files(self, tmp_path):
        spool = tmp_path / "spool"
        daemon = ServeDaemon(
            spool,
            store_root=tmp_path / "store",
            sentinel=make_sentinel(SentinelConfig(), {}),
            poll=0.05,
        )
        daemon.serve_forever(max_jobs=0, idle_timeout=0.2)
        health = read_health(spool)
        assert health["liveness"]["pid"] == os.getpid()
        assert health["pressure"]["state"] == "OK"
        # The daemon exited: readiness is withdrawn, liveness reports
        # our (live) pid so only freshness gates it.
        assert not health["ready"]

    def test_health_cli(self, tmp_path, capsys):
        from repro.cli import main

        spool = tmp_path / "spool"
        SpoolQueue(spool)
        rc = main(["serve", "status", "--spool", str(spool), "--health"])
        out = capsys.readouterr().out
        assert rc == 1  # no daemon: not live, not ready
        assert json.loads(out)["live"] is False
