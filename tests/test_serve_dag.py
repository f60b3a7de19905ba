"""The serve daemon's batch path: a claimed batch runs as one merged
stage plan inside one supervised child — per-stage dedup provenance in
results and status, failure isolation at job granularity, what a child
death, hang or drain costs the batch-mates, and the CLI surface.

One child per batch, so these tests are cheap: ``scale=6`` scenarios,
memory-or-tmp stores.
"""

from __future__ import annotations

import threading
import warnings

import pytest

from repro.pipeline import STAGE_ORDER, ArtifactStore, Pipeline, get_scenario
from repro.resilience.errors import JobFailedError
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.runtime.executor import RetryPolicy
from repro.service import ServeDaemon, ServiceClient
from tests.test_serve_chaos import assert_exactly_once, wait_for

CHEAP = {"scale": 6, "domains": 6, "processes": 3, "cores": 2}


def dag_daemon(spool, store=None, **over) -> ServeDaemon:
    """One worker slot: everything pending lands in one batch."""
    kwargs = dict(
        store_root=store,
        retry=RetryPolicy(max_retries=1, backoff=0.0),
        poll=0.05,
    )
    kwargs.update(over)
    return ServeDaemon(spool, **kwargs)


def submit_seed_sweep(client: ServiceClient, n: int) -> list[str]:
    return [
        client.submit("characteristics", options=dict(CHEAP, seed=s))
        for s in range(n)
    ]


class TestDagRoundTrip:
    def test_batch_shares_prefix_and_completes(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_ids = submit_seed_sweep(client, 3)

        daemon = dag_daemon(spool, str(tmp_path / "store"))
        done = daemon.serve_forever(max_jobs=3, idle_timeout=5.0)
        assert done == 3

        results = [client.result(j, timeout=5.0) for j in job_ids]
        # Every job reports the full chain with digests.
        for result in results:
            assert [s["stage"] for s in result["stages"]] == [
                "mesh",
                "levels",
                "partition",
                "taskgraph",
                "schedule",
            ]
            assert "metrics" in result
            assert "dedup" in result
        # Exactly one job computed the shared mesh+levels prefix; the
        # others rode it as "shared".
        shared_totals = sum(r["dedup"]["shared"] for r in results)
        computed_mesh = [
            r
            for r in results
            if any(
                s["stage"] == "mesh" and s["cache"] is None
                for s in r["stages"]
            )
        ]
        assert len(computed_mesh) == 1
        assert shared_totals == 4  # 2 riders × (mesh + levels)

    def test_results_identical_to_in_process_pipeline_run(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_ids = submit_seed_sweep(client, 2)
        dag_daemon(spool, str(tmp_path / "store")).serve_forever(
            max_jobs=2, idle_timeout=5.0
        )
        for seed, job_id in enumerate(job_ids):
            result = client.result(job_id, timeout=5.0)
            rec = Pipeline(ArtifactStore(None)).run(
                get_scenario("characteristics", **dict(CHEAP, seed=seed))
            )
            # Same content addresses stage by stage — the bit-identity
            # criterion, observed through the service surface.
            assert [s["digest"] for s in result["stages"]] == [
                rec.provenance[name].digest for name in STAGE_ORDER
            ]
            assert result["metrics"] == {
                "makespan": float(rec.metrics.makespan),
                "efficiency": float(rec.metrics.efficiency),
            }


class TestDagFailureIsolation:
    def test_bad_job_fails_alone(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        good = client.submit("characteristics", options=dict(CHEAP))
        # Same mesh prefix, bogus partition strategy: fails in its
        # unshared suffix, deterministically.
        bad = client.submit(
            "characteristics",
            options=dict(CHEAP, strategy="BOGUS"),
        )
        assert good != bad

        daemon = dag_daemon(spool)
        done = daemon.serve_forever(max_jobs=2, idle_timeout=5.0)
        assert done == 2

        assert client.result(good, timeout=5.0)["metrics"]
        with pytest.raises(JobFailedError, match="BOGUS"):
            client.result(bad, timeout=5.0)
        status = client.status(bad)
        assert status.state == "failed"
        # The shared prefix it did complete is in its provenance.
        assert [s["stage"] for s in status.stages][:2] == [
            "mesh",
            "levels",
        ]

    def test_unknown_scenario_fails_fast(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_id = client.submit("no-such-scenario")
        daemon = dag_daemon(spool)
        assert daemon.serve_forever(max_jobs=1, idle_timeout=5.0) == 1
        with pytest.raises(JobFailedError, match="unknown scenario"):
            client.result(job_id, timeout=5.0)


class TestDagRetries:
    def test_injected_transient_retries_then_succeeds(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        (job_id,) = submit_seed_sweep(client, 1)
        # Fault plan: the child is killed on attempt 0 only
        # (first_attempt_only default), so the retry succeeds.
        plan = FaultPlan(
            specs=[FaultSpec(kind="transient", rate=1.0)], seed=7
        )
        daemon = dag_daemon(spool, fault_plan=plan)
        with pytest.warns(RuntimeWarning, match="retrying"):
            done = daemon.serve_forever(max_jobs=1, idle_timeout=5.0)
        assert done == 1
        assert plan.injected["worker_death"] == 1
        status = client.status(job_id)
        assert status.state == "done"
        assert status.attempts == 2
        assert [e["outcome"] for e in status.history] == ["death", "done"]
        # Each attempt is stamped with its own start, not the job's.
        first, second = status.history
        assert status.started_at <= first["started_at"]
        assert first["finished_at"] <= second["started_at"]


class TestBatchSupervision:
    """What one child's fate costs the other jobs of its batch."""

    def three_jobs(self, client):
        """A ends at the mesh node all three share; B and C go on."""
        a = client.submit(
            "characteristics", options=dict(CHEAP), through="mesh"
        )
        b, c = (
            client.submit(
                "characteristics",
                options=dict(CHEAP, seed=s),
                through="levels",
            )
            for s in (1, 2)
        )
        return a, b, c

    def test_poison_job_deadletters_alone(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_ids = submit_seed_sweep(client, 3)
        daemon = dag_daemon(
            spool,
            str(tmp_path / "store"),
            retry=RetryPolicy(max_retries=3, backoff=0.0),
        )
        # The second job claimed is killed after its (unshared)
        # partition stage on every attempt.
        daemon._chaos_kill_stage = lambda seq, attempt: (
            "partition" if seq == 2 else None
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert daemon.serve_forever(max_jobs=3, idle_timeout=20.0) == 3

        queue = daemon.queue
        (poison,) = queue.deadletter_list()
        assert_exactly_once(queue, poison, "deadletter")
        history = queue.deadletter_show(poison)["history"]
        assert [h["outcome"] for h in history] == ["death", "death"]
        assert [h["stage_reached"] for h in history] == ["partition"] * 2
        assert [h["batch"] for h in history] == [3, 1]
        for mate in set(job_ids) - {poison}:
            assert_exactly_once(queue, mate, "done")
            status = client.status(mate)
            assert status.attempts <= 2
            # Whatever the shared child's death cost it, the retry ran
            # in a child of its own.
            assert [h["outcome"] for h in status.history][-1] == "done"
            assert [h["batch"] for h in status.history] == [3, 1][
                : status.attempts
            ]

    def test_no_retry_budget_means_no_shared_child(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_ids = submit_seed_sweep(client, 2)
        daemon = dag_daemon(
            spool, retry=RetryPolicy(max_retries=0, backoff=0.0)
        )
        daemon._chaos_kill_stage = lambda seq, attempt: (
            "partition" if seq == 1 else None
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert daemon.serve_forever(max_jobs=2, idle_timeout=20.0) == 2
        # With no attempt to spare the jobs never shared a child, so
        # the killed one took nobody with it.
        states = sorted(client.status(j).state for j in job_ids)
        assert states == ["deadletter", "done"]
        assert all(
            h["batch"] == 1
            for j in job_ids
            for h in client.status(j).history
        )

    def test_hung_child_is_terminated_finished_job_stays_done(
        self, tmp_path, monkeypatch
    ):
        # The child lingers a minute after every plan node: hung, as
        # far as a 5 s watchdog is concerned.
        monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "60")
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        a, b, c = self.three_jobs(client)
        daemon = dag_daemon(spool, str(tmp_path / "store"), watchdog=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runner = threading.Thread(
                target=daemon.serve_forever,
                kwargs={"max_jobs": 3, "idle_timeout": 30.0},
            )
            runner.start()
            try:
                # A's result lands while the child sleeps after the
                # mesh node; the daemon reads the delay when an attempt
                # starts, so the retries' children don't linger.
                wait_for(
                    lambda: client.status(a).state == "done",
                    what="job A to finish inside the batch child",
                )
                monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "0")
            finally:
                runner.join(timeout=60.0)
            assert not runner.is_alive()
        status = client.status(a)
        assert status.attempts == 1
        assert [h["outcome"] for h in status.history] == ["done"]
        assert_exactly_once(daemon.queue, a, "done")
        for job_id in (b, c):
            assert_exactly_once(daemon.queue, job_id, "done")
            history = client.status(job_id).history
            assert [h["outcome"] for h in history] == ["timeout", "done"]
            assert [h["batch"] for h in history] == [3, 1]

    def test_drain_mid_batch_keeps_done_requeues_rest(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SERVE_STAGE_DELAY", "60")
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        a, b, c = self.three_jobs(client)
        daemon = dag_daemon(spool, str(tmp_path / "store"), drain_grace=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            runner = threading.Thread(
                target=daemon.serve_forever, kwargs={"idle_timeout": 60.0}
            )
            runner.start()
            try:
                wait_for(
                    lambda: client.status(a).state == "done",
                    what="job A to finish inside the batch child",
                )
            finally:
                daemon.request_drain()
                runner.join(timeout=60.0)
            assert not runner.is_alive()
        assert daemon.draining and not daemon.forced
        assert daemon._completed == 1
        assert daemon._requeued_on_drain == 2
        assert_exactly_once(daemon.queue, a, "done")
        for job_id in (b, c):
            assert_exactly_once(daemon.queue, job_id, "pending")
        for job_id in (a, b, c):
            assert not daemon.queue.workdir(job_id).exists()
            assert not daemon.queue._status_path(job_id).exists()

    def test_max_jobs_bounds_the_batches(self, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        submit_seed_sweep(client, 5)
        daemon = dag_daemon(spool, str(tmp_path / "store"), workers=2)
        assert daemon.serve_forever(max_jobs=2, idle_timeout=5.0) == 2
        jobs = daemon.queue.jobs()
        assert len(jobs["done"]) == 2
        assert len(jobs["pending"]) == 3
        assert jobs["running"] == []


class TestDagCLI:
    def test_serve_run_dag_and_status_overview(self, tmp_path, capsys):
        from repro.cli import main

        spool = str(tmp_path / "spool")
        client = ServiceClient(spool)
        # Two worker slots split the backlog evenly: two batches of
        # two, one rider each.
        job_ids = submit_seed_sweep(client, 4)

        rc = main(
            [
                "serve",
                "run",
                "--spool",
                spool,
                "--workers",
                "2",
                "--max-jobs",
                "4",
                "--idle-timeout",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "processed 4 job(s)" in out

        # Per-job status line carries the dedup split.
        rider = next(
            j
            for j in job_ids
            if any(
                s.get("cache") == "shared"
                for s in (client.status(j).stages or [])
            )
        )
        rc = main(
            ["serve", "status", "--spool", spool, "--job-id", rider]
        )
        assert rc == 0
        line = capsys.readouterr().out
        assert "shared:2" in line

        # Spool overview aggregates per-stage dedup counts.
        rc = main(["serve", "status", "--spool", spool])
        assert rc == 0
        overview = capsys.readouterr().out
        assert "done=4" in overview
        assert "per-stage dedup" in overview
        assert "shared=2" in overview  # mesh row: one rider per batch

    def test_serve_result_prints_dedup(self, tmp_path, capsys):
        from repro.cli import main

        spool = str(tmp_path / "spool")
        client = ServiceClient(spool)
        job_ids = submit_seed_sweep(client, 2)
        dag_daemon(spool).serve_forever(max_jobs=2, idle_timeout=5.0)
        rc = main(
            [
                "serve",
                "result",
                "--spool",
                spool,
                "--job-id",
                job_ids[1],
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dedup:" in out
        assert "shared" in out
