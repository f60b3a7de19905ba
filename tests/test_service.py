"""Service-tier tests: the spool queue's crash-safe state machine,
the client's typed results, the daemon's retry/watchdog/orphan paths,
and the ``repro serve`` CLI round-trips.

The daemon runs jobs in spawned child processes; these tests use tiny
scenarios (``scale=6``) so each child costs import time, not compute
time.  The multiprocess crash-injection coverage lives in
``tests/test_store_chaos.py`` — here the focus is the protocol.
"""

from __future__ import annotations

import json
import os
import time
import warnings

import pytest

from repro.resilience.errors import JobFailedError
from repro.runtime.executor import RetryPolicy
from repro.service import (
    JobRequest,
    JobStatus,
    ServeDaemon,
    ServiceClient,
    SpoolQueue,
    read_health,
)

from tests.test_serve_chaos import wait_for

CHEAP = {"scale": 6, "domains": 6, "processes": 3, "cores": 2}


def cheap_daemon(spool, store, **over) -> ServeDaemon:
    kwargs = dict(
        store_root=store,
        retry=RetryPolicy(max_retries=1, backoff=0.0),
        watchdog=60.0,
        poll=0.05,
    )
    kwargs.update(over)
    return ServeDaemon(spool, **kwargs)


class TestJobRequest:
    def test_job_id_is_content_addressed(self):
        a = JobRequest("characteristics", options={"domains": 8})
        b = JobRequest("characteristics", options={"domains": 8})
        c = JobRequest("characteristics", options={"domains": 16})
        assert a.job_id() == b.job_id()
        assert a.job_id() != c.job_id()
        assert len(a.job_id()) == 24

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            JobRequest("characteristics", through="nope")

    def test_round_trips_through_dict(self):
        req = JobRequest("speedup", options={"seed": 3}, through="taskgraph")
        assert JobRequest.from_dict(req.to_dict()) == req


class TestSpoolQueue:
    def test_submit_dedupes_across_states(self, tmp_path):
        q = SpoolQueue(tmp_path)
        req = JobRequest("characteristics")
        job_id = q.submit(req)
        assert q.submit(req) == job_id
        assert q.jobs()["pending"] == [job_id]

        claimed = q.claim_next()
        assert claimed is not None and claimed[0] == job_id
        assert q.submit(req) == job_id  # deduped against running/
        assert q.jobs()["pending"] == []

        q.finish(job_id, JobStatus(job_id=job_id, state="done"))
        assert q.submit(req) == job_id  # deduped against done/
        assert q.jobs()["done"] == [job_id]

    def test_claim_is_exclusive(self, tmp_path):
        q = SpoolQueue(tmp_path)
        q.submit(JobRequest("characteristics"))
        assert q.claim_next() is not None
        assert q.claim_next() is None

    def test_finish_requires_terminal_state(self, tmp_path):
        q = SpoolQueue(tmp_path)
        with pytest.raises(ValueError, match="terminal state"):
            q.finish("x", JobStatus(job_id="x", state="running"))

    def test_corrupt_request_fails_typed(self, tmp_path):
        q = SpoolQueue(tmp_path)
        (tmp_path / "pending" / "deadbeef.json").write_text("{torn")
        assert q.claim_next() is None
        status = q.status("deadbeef")
        assert status is not None
        assert status.state == "failed"
        assert status.error_kind == "CorruptRequest"

    def test_undecodable_request_fails_typed(self, tmp_path):
        # A byte that is not UTF-8 reads as a corrupt record, like any
        # other garbage, instead of raising after the claim's rename
        # and stranding the job in running/.
        q = SpoolQueue(tmp_path)
        (tmp_path / "pending" / "badbytes.json").write_bytes(
            b'{"request": "\xff"}'
        )
        assert q.claim_batch(4) == []
        status = q.status("badbytes")
        assert status is not None
        assert status.state == "failed"
        assert status.error_kind == "CorruptRequest"
        assert q.jobs()["running"] == []

    def test_invalid_request_fails_typed(self, tmp_path):
        q = SpoolQueue(tmp_path)
        (tmp_path / "pending" / "badstage.json").write_text(
            json.dumps(
                {
                    "job_id": "badstage",
                    "request": {"scenario": "x", "through": "nope"},
                    "submitted_at": 0.0,
                }
            )
        )
        assert q.claim_next() is None
        status = q.status("badstage")
        assert status.state == "failed"
        assert status.error_kind == "InvalidRequest"

    def test_recover_orphans_requeues_dead_daemons(self, tmp_path):
        q = SpoolQueue(tmp_path)
        job_id = q.submit(JobRequest("characteristics"))
        q.claim_next()
        # a status claiming a dead daemon pid
        q.write_status(
            JobStatus(
                job_id=job_id,
                state="running",
                worker={"daemon_pid": 2**22 + 777},
            )
        )
        assert q.recover_orphans() == [job_id]
        assert q.jobs()["pending"] == [job_id]
        assert q.jobs()["running"] == []

    def test_recover_leaves_live_daemons_alone(self, tmp_path):
        q = SpoolQueue(tmp_path)
        job_id = q.submit(JobRequest("characteristics"))
        q.claim_next()
        # fork a sleeping child to own the job, so the pid is live
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            time.sleep(30)
            os._exit(0)
        try:
            q.write_status(
                JobStatus(
                    job_id=job_id,
                    state="running",
                    worker={"daemon_pid": pid},
                )
            )
            assert q.recover_orphans() == []
            assert q.jobs()["running"] == [job_id]
        finally:
            os.kill(pid, 9)
            os.waitpid(pid, 0)

    @pytest.mark.parametrize(
        "start, move, seen",
        [
            ("pending", "claim", {"pending", "running"}),
            ("running", "finish", {"done"}),
            ("running", "requeue", {"pending"}),
        ],
        ids=["claim", "finish", "requeue"],
    )
    def test_status_survives_a_move_between_probes(
        self, tmp_path, monkeypatch, start, move, seen
    ):
        """The job changes state right after ``status()``'s first read
        of one of its files — the window in which a daemon's rename
        between two probes used to make the job read ``None``."""
        from repro.service import queue as queue_mod

        q = SpoolQueue(tmp_path)
        job_id = q.submit(JobRequest("characteristics"))
        if start != "pending":
            q.claim_next()
        moves = {
            "claim": q.claim_next,
            "finish": lambda: q.finish(
                job_id, JobStatus(job_id=job_id, state="done")
            ),
            "requeue": lambda: q.requeue(job_id),
        }
        real_read = queue_mod.read_json
        moved = []

        def read_then_move(path):
            data = real_read(path)
            if job_id in str(path) and not moved:
                moved.append(path)
                moves[move]()
            return data

        monkeypatch.setattr(queue_mod, "read_json", read_then_move)
        status = q.status(job_id)
        assert moved, "the hook never fired"
        assert status is not None, f"job read None across a {move}"
        assert status.state in seen


class TestClient:
    def test_unknown_job(self, tmp_path):
        client = ServiceClient(tmp_path)
        assert client.status("nope") is None
        with pytest.raises(KeyError):
            client.wait("nope", timeout=0.1)

    def test_wait_times_out_on_pending_job(self, tmp_path):
        client = ServiceClient(tmp_path)
        job_id = client.submit("characteristics")
        with pytest.raises(TimeoutError):
            client.wait(job_id, timeout=0.2, poll=0.05)

    def test_result_raises_typed_failure_with_provenance(self, tmp_path):
        client = ServiceClient(tmp_path)
        q = client.queue
        job_id = q.submit(JobRequest("characteristics"))
        q.claim_next()
        q.finish(
            job_id,
            JobStatus(
                job_id=job_id,
                state="failed",
                attempts=3,
                error="worker died with exit code -9",
                error_kind="WorkerDeath",
                stages=[{"stage": "mesh", "digest": "abc", "cache": None}],
            ),
        )
        with pytest.raises(JobFailedError) as exc_info:
            client.result(job_id)
        err = exc_info.value
        assert err.job_id == job_id
        assert err.kind == "WorkerDeath"
        assert err.attempts == 3
        assert [s["stage"] for s in err.stages] == ["mesh"]
        assert "stages completed: mesh" in str(err)


class TestDaemon:
    def test_round_trip_with_provenance(self, tmp_path):
        client = ServiceClient(tmp_path / "spool")
        job_id = client.submit(
            "characteristics", options=CHEAP, through="partition"
        )
        daemon = cheap_daemon(tmp_path / "spool", tmp_path / "store")
        assert daemon.serve_forever(max_jobs=1, idle_timeout=5.0) == 1
        status = client.wait(job_id, timeout=5.0)
        assert status.state == "done"
        assert status.attempts == 1
        result = client.result(job_id)
        assert [s["stage"] for s in result["stages"]] == [
            "mesh",
            "levels",
            "partition",
        ]
        assert all("digest" in s for s in result["stages"])

    def test_identical_request_is_served_from_store(self, tmp_path):
        client = ServiceClient(tmp_path / "spool")
        job_id = client.submit(
            "characteristics", options=CHEAP, through="levels"
        )
        daemon = cheap_daemon(tmp_path / "spool", tmp_path / "store")
        daemon.serve_forever(max_jobs=1, idle_timeout=5.0)
        # fresh store: every stage was computed, none came from disk
        result1 = client.result(job_id)
        assert all(s["cache"] != "disk" for s in result1["stages"])
        # same request again: deduped to the done job, no new compute
        assert (
            client.submit("characteristics", options=CHEAP, through="levels")
            == job_id
        )
        # a *new* request over the same chain prefix hits the store
        job2 = client.submit(
            "characteristics", options=CHEAP, through="mesh"
        )
        daemon.serve_forever(max_jobs=1, idle_timeout=5.0)
        result2 = client.result(job2, timeout=5.0)
        # the new child process found mesh in the shared disk store
        assert result2["stages"][0]["cache"] == "disk"

    def test_permanent_failure_is_typed_with_partial_provenance(
        self, tmp_path
    ):
        client = ServiceClient(tmp_path / "spool")
        # domains < processes: the partition stage raises ValueError
        job_id = client.submit(
            "characteristics",
            options={**CHEAP, "domains": 2},
            through="partition",
        )
        daemon = cheap_daemon(tmp_path / "spool", tmp_path / "store")
        daemon.serve_forever(max_jobs=1, idle_timeout=5.0)
        status = client.wait(job_id, timeout=5.0)
        assert status.state == "failed"
        assert status.attempts == 1  # permanent: not retried
        assert status.error_kind == "ValueError"
        # the stages that finished before the failure are preserved
        assert [s["stage"] for s in status.stages] == ["mesh", "levels"]
        with pytest.raises(JobFailedError, match="stages completed"):
            client.result(job_id)

    def test_watchdog_kills_stalled_child(self, tmp_path, monkeypatch):
        # The child lingers a minute after every plan node, so the
        # second node cannot land inside the watchdog however fast the
        # child started — the attempt must be terminated and, with a
        # zero retry budget, the exhausted retryable failure is
        # quarantined in the dead-letter tier (typed StageTimeout
        # diagnosis).
        monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "60")
        client = ServiceClient(tmp_path / "spool")
        job_id = client.submit(
            "characteristics", options=CHEAP, through="levels"
        )
        daemon = cheap_daemon(
            tmp_path / "spool",
            tmp_path / "store",
            watchdog=0.5,
            retry=RetryPolicy(max_retries=0, backoff=0.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            daemon.serve_forever(max_jobs=1, idle_timeout=5.0)
        status = client.wait(job_id, timeout=5.0)
        assert status.state == "deadletter"
        assert status.error_kind == "StageTimeout"
        assert "no stage progress" in status.error
        assert "dead-lettered" in status.error
        assert daemon.queue.deadletter_list() == [job_id]

    def test_startup_recovers_orphans(self, tmp_path):
        client = ServiceClient(tmp_path / "spool")
        job_id = client.submit(
            "characteristics", options=CHEAP, through="mesh"
        )
        q = SpoolQueue(tmp_path / "spool")
        q.claim_next()  # a daemon claimed it ...
        q.write_status(
            JobStatus(
                job_id=job_id,
                state="running",
                worker={"daemon_pid": 2**22 + 888},  # ... and died
            )
        )
        daemon = cheap_daemon(tmp_path / "spool", tmp_path / "store")
        with pytest.warns(RuntimeWarning, match="requeued orphaned job"):
            done = daemon.serve_forever(max_jobs=1, idle_timeout=5.0)
        assert done == 1
        assert client.wait(job_id, timeout=5.0).state == "done"


class TestServeCLI:
    def test_submit_run_result_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        spool = str(tmp_path / "spool")
        store = str(tmp_path / "store")
        rc = main(
            [
                "serve",
                "submit",
                "--spool",
                spool,
                "--scenario",
                "characteristics",
                "--set",
                "scale=6",
                "--set",
                "domains=6",
                "--set",
                "processes=3",
                "--set",
                "cores=2",
                "--through",
                "partition",
            ]
        )
        assert rc == 0
        job_id = capsys.readouterr().out.strip()
        assert len(job_id) == 24

        rc = main(
            [
                "--artifacts",
                store,
                "serve",
                "run",
                "--spool",
                spool,
                "--max-jobs",
                "1",
                "--idle-timeout",
                "5",
            ]
        )
        assert rc == 0
        assert "processed 1 job" in capsys.readouterr().out

        rc = main(
            ["serve", "status", "--spool", spool, "--job-id", job_id]
        )
        assert rc == 0
        assert "done" in capsys.readouterr().out

        rc = main(
            ["serve", "result", "--spool", spool, "--job-id", job_id]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for stage in ("mesh", "levels", "partition"):
            assert stage in out

    def test_result_requires_job_id(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["serve", "result", "--spool", str(tmp_path / "s")])
        assert rc == 1
        assert "needs --job-id" in capsys.readouterr().err


class TestSignalLifecycle:
    """Real-signal drain coverage: the daemon as an actual OS process.

    The in-process drain mechanics are covered in
    ``tests/test_serve_chaos.py``; here the full story — SIGTERM
    delivered to a live ``repro serve run`` process — must requeue the
    running job and exit 0, and a second SIGTERM must force-quit
    (nonzero) without corrupting the spool state machine.
    """

    def launch_daemon(self, tmp_path, *extra):
        import subprocess
        import sys
        from pathlib import Path

        repo_src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(repo_src), env.get("PYTHONPATH")])
        )
        # The child lingers after each stage: a deterministic mid-job
        # window for the signal to land in.
        env["REPRO_SERVE_STAGE_DELAY"] = "10.0"
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "--artifacts",
                str(tmp_path / "store"),
                "serve",
                "run",
                "--spool",
                str(tmp_path / "spool"),
                "--idle-timeout",
                "120",
                "--watchdog",
                "120",
                *extra,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def wait_mid_job(self, client, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = client.status(job_id)
            if (
                status is not None
                and status.state == "running"
                and len(status.stages) >= 1
            ):
                return
            time.sleep(0.05)
        raise AssertionError("daemon never got the job mid-stage")

    def assert_spool_consistent(self, spool, job_id, state):
        queue = SpoolQueue(spool)
        placements = [
            s for s, ids in queue.jobs().items() if job_id in ids
        ]
        assert placements == [state]
        assert not queue._status_path(job_id).exists()
        assert list(spool.glob("*/*.tmp*")) == []  # no torn writes

    def test_sigterm_mid_job_requeues_and_exits_zero(self, tmp_path):
        import signal as signal_mod

        client = ServiceClient(tmp_path / "spool")
        job_id = client.submit(
            "characteristics", options=CHEAP, through="levels"
        )
        proc = self.launch_daemon(tmp_path, "--drain-grace", "0.2")
        try:
            self.wait_mid_job(client, job_id)
            proc.send_signal(signal_mod.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained cleanly" in out
        # Finish-or-requeue: the mid-flight job went back to pending
        # exactly once; a later daemon owes it nothing but a rerun.
        self.assert_spool_consistent(tmp_path / "spool", job_id, "pending")

    def test_double_sigterm_force_quits_without_corruption(self, tmp_path):
        import signal as signal_mod

        client = ServiceClient(tmp_path / "spool")
        job_id = client.submit(
            "characteristics", options=CHEAP, through="levels"
        )
        # A long grace: the first SIGTERM alone would wait the child
        # out, so only the second (force) explains a prompt exit.
        proc = self.launch_daemon(tmp_path, "--drain-grace", "300")
        try:
            self.wait_mid_job(client, job_id)
            proc.send_signal(signal_mod.SIGTERM)
            # The second signal goes out once the daemon has published
            # that the first one put it into drain.
            wait_for(
                lambda: read_health(tmp_path / "spool")["liveness"]["draining"],
                timeout=60.0,
                what="daemon to report draining",
            )
            proc.send_signal(signal_mod.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1, out
        assert "force-quit" in out
        self.assert_spool_consistent(tmp_path / "spool", job_id, "pending")
