"""How the serve daemon starts its children: forks of one preloaded
``multiprocessing`` forkserver, handed the daemon's environment per
attempt, claimed the moment a slot frees.

Each test pins one part of that mechanism: what the preload must
cover, what the hand-over must carry, what a dead server costs, that a
freed slot wakes the claim loop, and that the server leaves with its
daemon.
"""

from __future__ import annotations

import json
import multiprocessing.forkserver
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.pipeline import ArtifactStore
from repro.runtime.executor import RetryPolicy
from repro.service import JobRequest, ServiceClient
from tests import serve_probe
from tests.test_serve_chaos import assert_exactly_once, wait_for
from tests.test_serve_dag import CHEAP, dag_daemon

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(),
    reason="process states are read from /proc",
)


def forkserver_pid() -> int:
    """The pid of this process's (running) forkserver."""
    multiprocessing.forkserver.ensure_running()
    return multiprocessing.forkserver._forkserver._forkserver_pid


def process_gone(pid: int) -> bool:
    """Exited — reaped or not: a zombie runs nothing."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] in "ZX"


def serve_in_thread(daemon, **bounds) -> threading.Thread:
    runner = threading.Thread(target=daemon.serve_forever, kwargs=bounds)
    runner.start()
    return runner


class TestPreload:
    def test_schedule_job_imports_nothing_on_top_of_the_preload(
        self, tmp_path
    ):
        daemon = dag_daemon(tmp_path / "spool", str(tmp_path / "store"))
        work = tmp_path / "work"
        work.mkdir()
        request = JobRequest(
            "characteristics", options=dict(CHEAP), through="schedule"
        )
        spec = {
            "request": request.to_dict(),
            "workdir": str(work),
            "kill_after": None,
        }
        report = tmp_path / "report.json"
        child = daemon._ctx.Process(
            target=serve_probe.run_batch_reporting_imports,
            args=(
                str(report),
                (
                    [spec],
                    daemon.store_root,
                    str(tmp_path / "pressure.json"),
                    dict(os.environ),
                    0.0,
                ),
            ),
        )
        child.start()
        child.join(timeout=60.0)
        assert child.exitcode == 0
        assert (work / "result.json").exists()
        seen = json.loads(report.read_text())
        assert seen["preloaded"]
        # A lazy import added to a stage later shows up here, not as
        # +100 ms on every job.
        assert [
            name
            for name in seen["new"]
            if name.split(".")[0] in ("repro", "numpy")
        ] == []


class TestEnvironmentHandOver:
    def test_child_sees_the_daemons_environment_as_of_its_attempt(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
        client = ServiceClient(tmp_path / "spool")
        # No store root: each child's store is the process default,
        # which ``REPRO_ARTIFACTS`` switches onto a directory.
        daemon = dag_daemon(tmp_path / "spool")
        server = forkserver_pid()  # up before the variable exists
        artifacts = tmp_path / "artifacts"

        def served_digest(seed: int) -> str:
            job_id = client.submit(
                "characteristics",
                options=dict(CHEAP, seed=seed),
                through="partition",
            )
            assert daemon.serve_forever(max_jobs=1, idle_timeout=5.0) == 1
            return client.result(job_id, timeout=5.0)["stages"][-1]["digest"]

        def published(digest: str) -> bool:
            store = ArtifactStore(artifacts)
            return store.sidecar("partition", digest) is not None

        # The child reads the variable from its own environment ...
        monkeypatch.setenv("REPRO_ARTIFACTS", str(artifacts))
        assert published(served_digest(1))
        monkeypatch.delenv("REPRO_ARTIFACTS")
        assert not published(served_digest(2))
        # ... through the same server, which never saw either change.
        assert forkserver_pid() == server


class TestServerDeath:
    def test_killed_between_jobs_the_next_job_restarts_it(self, tmp_path):
        client = ServiceClient(tmp_path / "spool")
        daemon = dag_daemon(tmp_path / "spool", str(tmp_path / "store"))
        runner = serve_in_thread(daemon, max_jobs=2, idle_timeout=30.0)
        try:
            first = client.submit(
                "characteristics", options=dict(CHEAP), through="mesh"
            )
            wait_for(
                lambda: client.status(first).state == "done",
                what="the first job",
            )
            server = forkserver_pid()
            os.kill(server, signal.SIGKILL)
            wait_for(lambda: process_gone(server), what="the server to die")
            second = client.submit(
                "characteristics",
                options=dict(CHEAP, seed=1),
                through="mesh",
            )
        finally:
            runner.join(timeout=60.0)
        assert not runner.is_alive()
        for job_id in (first, second):
            assert_exactly_once(daemon.queue, job_id, "done")
            status = client.status(job_id)
            assert [h["outcome"] for h in status.history] == ["done"]
        assert forkserver_pid() != server

    def test_killed_under_a_child_is_an_ordinary_worker_death(
        self, tmp_path, monkeypatch
    ):
        # The first attempt lingers after its first node, so the server
        # dies under a live child; the retry does not linger.
        monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "60")
        client = ServiceClient(tmp_path / "spool")
        job_id = client.submit(
            "characteristics", options=dict(CHEAP), through="levels"
        )
        daemon = dag_daemon(tmp_path / "spool", str(tmp_path / "store"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runner = serve_in_thread(daemon, max_jobs=1, idle_timeout=30.0)
            try:
                wait_for(
                    lambda: len(client.status(job_id).stages) >= 1,
                    what="the child to be mid-job",
                )
                orphan = client.status(job_id).worker["child_pid"]
                monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "0")
                os.kill(forkserver_pid(), signal.SIGKILL)
            finally:
                runner.join(timeout=60.0)
            assert not runner.is_alive()
        assert_exactly_once(daemon.queue, job_id, "done")
        first, second = client.status(job_id).history
        assert (first["outcome"], first["kind"]) == ("death", "WorkerDeath")
        assert first["stage_reached"] == "mesh"
        assert second["outcome"] == "done"
        # Nobody was left to report the child; it was stopped, not
        # left to write into the retry's workdir.
        wait_for(lambda: process_gone(orphan), what="the orphan to be gone")


class TestWake:
    def test_freed_slot_claims_without_waiting_out_the_poll(self, tmp_path):
        client = ServiceClient(tmp_path / "spool")
        for seed in (0, 1):
            client.submit(
                "characteristics",
                options=dict(CHEAP, seed=seed),
                through="mesh",
            )
        # No retry budget: one job per child, so the second job needs
        # the slot the first one frees.
        daemon = dag_daemon(
            tmp_path / "spool",
            workers=1,
            poll=5.0,
            retry=RetryPolicy(max_retries=0, backoff=0.0),
        )
        t0 = time.monotonic()
        assert daemon.serve_forever(max_jobs=2, idle_timeout=5.0) == 2
        assert time.monotonic() - t0 < daemon.poll / 2

    def test_drain_request_ends_the_wait(self, tmp_path):
        daemon = dag_daemon(tmp_path / "spool", poll=5.0)
        runner = serve_in_thread(daemon, idle_timeout=60.0)
        wait_for(
            lambda: (tmp_path / "spool" / "health" / "ready.json").exists(),
            what="the daemon to be ready",
        )
        t0 = time.monotonic()
        daemon.request_drain()
        runner.join(timeout=60.0)
        assert not runner.is_alive()
        assert time.monotonic() - t0 < daemon.poll / 2


class TestNoLitter:
    SCRIPT = """
import multiprocessing.forkserver as fs, sys
from repro.service import ServeDaemon, ServiceClient
spool, options = sys.argv[1], {options!r}
ServiceClient(spool).submit("characteristics", options=options, through="mesh")
daemon = ServeDaemon(spool, poll=0.05)
assert daemon.serve_forever(max_jobs=1, idle_timeout=5.0) == 1
del daemon
print(fs._forkserver._forkserver_pid)
"""

    def test_server_leaves_with_the_process_that_served(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")])
            ),
        )
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                self.SCRIPT.format(options=CHEAP),
                str(tmp_path / "spool"),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        assert done.returncode == 0, done.stderr
        server = int(done.stdout.split()[-1])
        wait_for(
            lambda: process_gone(server),
            what="the forkserver to follow its parent out",
        )
