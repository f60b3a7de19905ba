"""Stage-DAG layer tests: plan compilation and merge rules, the
scheduler's dedup/bit-identity guarantees, shared provenance, and
failure isolation between jobs sharing a prefix.

A merged plan over scenarios sharing a mesh/levels prefix executes
each shared stage exactly once (asserted by stage-compute counters),
returns artifacts and ``RunRecord`` digests bit-identical to
independent single-scenario runs, and a failure in one job's unshared
suffix fails only that job.  Plan keys are checked against the digest
chain recomputed by hand with ``stage_digest``.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.pipeline import (
    ArtifactStore,
    DagScheduler,
    Pipeline,
    Scenario,
    compile_plan,
    expand_sweep,
    run_batch,
)
from repro.mesh.structures import Mesh
from repro.partitioning import DomainDecomposition
from repro.pipeline import scheduler as scheduler_mod
from repro.pipeline.hashing import stage_digest
from repro.pipeline.stages import (
    STAGE_INPUTS,
    STAGE_ORDER,
    STAGES,
    PartitionStage,
    TaskGraphStage,
)
from repro.taskgraph.dag import TaskDAG
from repro.util import forkpool


def base_scenario(**overrides) -> Scenario:
    opts = dict(
        domains=4, processes=2, cores=2, scale=6, strategy="SC_OC"
    )
    opts.update(overrides)
    return Scenario.standard("cube", **opts)


def seed_sweep(n: int) -> list[Scenario]:
    """N scenarios differing only in partition/schedule seed."""
    return expand_sweep(base_scenario(), {"seed": list(range(n))})


def iteration_sweep() -> list[Scenario]:
    """Three scenarios behind one partition: a round of three
    taskgraph misses, then one of three schedule misses."""
    return expand_sweep(base_scenario(), {"iterations": [1, 2, 3]})


def stage_counts(plan) -> dict[str, dict[str, int]]:
    """Per stage: distinct ``nodes``, requested ``job_stages`` and the
    ``shared`` executions the plan-time merge elided."""
    out: dict[str, dict[str, int]] = {}
    for task in plan.nodes.values():
        c = out.setdefault(task.stage, {"nodes": 0, "job_stages": 0, "shared": 0})
        c["nodes"] += 1
        c["job_stages"] += len(task.jobs)
        c["shared"] += len(task.jobs) - 1
    return out


class TestCompilePlan:
    def test_stage_names_are_the_stage_classes_in_order(self):
        # The name tuple is declared apart from the classes, so that
        # the serve control plane can read it without the pipeline.
        assert tuple(STAGES) == STAGE_ORDER
        assert STAGE_INPUTS.keys() == STAGES.keys()

    def test_single_scenario_shape(self):
        plan = compile_plan([base_scenario()])
        assert len(plan) == 5
        assert len(plan.scenarios) == 1
        assert [plan.nodes[k].stage for k in plan.job_stages[0].values()] == list(
            STAGE_ORDER
        )
        # Edges mirror STAGE_INPUTS exactly.
        chain = plan.job_stages[0]
        for name, key in chain.items():
            assert plan.nodes[key].deps == tuple(
                chain[u] for u in STAGE_INPUTS[name]
            )

    def test_through_bounds_the_chain(self):
        plan = compile_plan([base_scenario()], through="partition")
        assert sorted(t.stage for t in plan.nodes.values()) == [
            "levels",
            "mesh",
            "partition",
        ]
        with pytest.raises(ValueError, match="unknown stage"):
            compile_plan([base_scenario()], through="warp")

    def test_keys_match_linear_digests(self):
        # The five-stage digest chain, walked by hand: each stage's
        # address covers its config and its inputs' addresses.
        sc = base_scenario()
        plan = compile_plan([sc])
        digests: dict[str, str] = {}
        for name in STAGE_ORDER:
            stage = STAGES[name]
            digests[name] = stage_digest(
                stage.name,
                stage.version,
                getattr(sc, name),
                [digests[u] for u in STAGE_INPUTS[name]],
            )
        assert plan.job_stages[0] == digests
        rec = Pipeline(ArtifactStore(), n_jobs=1).run(sc)
        for name in STAGE_ORDER:
            assert rec.provenance[name].digest == digests[name]

    def test_shared_prefix_collapses(self):
        n = 4
        plan = compile_plan(seed_sweep(n))
        counts = stage_counts(plan)
        assert counts["mesh"] == {"nodes": 1, "job_stages": n, "shared": n - 1}
        assert counts["levels"] == {"nodes": 1, "job_stages": n, "shared": n - 1}
        assert counts["partition"]["nodes"] == n
        assert counts["taskgraph"]["nodes"] == n
        assert counts["schedule"]["nodes"] == n
        assert sum(c["shared"] for c in counts.values()) == 2 * (n - 1)
        mesh_key = plan.job_stages[0]["mesh"]
        assert plan.nodes[mesh_key].jobs == tuple(range(n))
        assert plan.nodes[mesh_key].shared

    def test_distinct_meshes_do_not_merge(self):
        plan = compile_plan(
            [base_scenario(scale=5), base_scenario(scale=6)]
        )
        assert len(plan) == 10
        assert sum(c["shared"] for c in stage_counts(plan).values()) == 0

    def test_priorities_are_critical_path_first(self):
        plan = compile_plan(seed_sweep(2))
        chain = plan.job_stages[0]
        levels = [plan.priority[chain[name]] for name in STAGE_ORDER]
        # Bottom levels strictly decrease down one chain.
        assert levels == sorted(levels, reverse=True)
        # The shared mesh root dominates everything.
        assert plan.priority[chain["mesh"]] == max(
            plan.priority.values()
        )

    def test_per_scenario_through(self):
        plan = compile_plan(
            [base_scenario(), base_scenario()],
            through=["levels", "schedule"],
        )
        assert set(plan.job_stages[0]) == {"mesh", "levels"}
        assert set(plan.job_stages[1]) == set(STAGE_ORDER)
        with pytest.raises(ValueError, match="'through'"):
            compile_plan([base_scenario()], through=["mesh", "mesh"])


class ComputeLog:
    """Stage ``compute`` calls, one ``"<stage> <pid>"`` line each,
    appended to a file so that computes in forked pool workers count
    too."""

    def __init__(self, path) -> None:
        self.path = path

    def lines(self) -> list[tuple[str, int]]:
        if not self.path.exists():
            return []
        rows = [line.split() for line in self.path.read_text().splitlines()]
        return [(stage, int(pid)) for stage, pid in rows]

    def __getitem__(self, stage: str) -> int:
        return sum(1 for s, _ in self.lines() if s == stage)


@pytest.fixture
def compute_counters(monkeypatch, tmp_path):
    """Count every stage's ``compute`` invocations, in this process
    and in pool workers forked from it."""
    log = ComputeLog(tmp_path / "computes.log")

    def counting(stage):
        orig = stage.compute

        def wrapper(*args, **kwargs):
            with open(log.path, "a") as fh:
                fh.write(f"{stage.name} {os.getpid()}\n")
            return orig(*args, **kwargs)

        return staticmethod(wrapper)

    for stage in STAGES.values():
        monkeypatch.setattr(stage, "compute", counting(stage))
    return log


class CountingPool:
    """Spy on the one pool constructor,
    :func:`repro.util.forkpool.fork_pool`, which the scheduler's rounds
    and the bisection tree share.  A round pool is told from a tree
    pool by what is submitted to it: plan node keys, through
    ``_pool_node``.  Records the worker count of every round pool
    (when its first node is submitted, which is when its workers
    fork), every key submitted to one, and whether each forked from
    the main thread with no claim heartbeat live."""

    def __init__(self, real):
        self.real = real
        self.started: list[int] = []
        self.submitted: list[str] = []
        self.forked_clean: list[bool] = []

    def __call__(self, workers, *inherited):
        pool = self.real(workers, *inherited)
        submit = pool.submit
        counted = False

        def counting_submit(fn, *args):
            nonlocal counted
            if fn is scheduler_mod._pool_node:
                if not counted:
                    counted = True
                    self.started.append(workers)
                    self.forked_clean.append(
                        threading.current_thread()
                        is threading.main_thread()
                        and not any(
                            t.name == "repro-claim-heartbeat"
                            for t in threading.enumerate()
                        )
                    )
                self.submitted.append(args[0])
            return submit(fn, *args)

        pool.submit = counting_submit
        return pool


@pytest.fixture
def pool_spy(monkeypatch):
    spy = CountingPool(forkpool.fork_pool)
    monkeypatch.setattr(forkpool, "fork_pool", spy)
    return spy


class TestMergedExecution:
    def test_shared_stages_compute_exactly_once(
        self, compute_counters, pool_spy
    ):
        n = 5
        scenarios = seed_sweep(n)
        records = run_batch(scenarios, store=ArtifactStore(), n_jobs=2)
        assert len(records) == n
        # The acceptance criterion: mesh and levels ran once for the
        # whole sweep, everything downstream once per seed — also
        # where the taskgraph and schedule rounds ran on a pool.
        assert compute_counters["mesh"] == 1
        assert compute_counters["levels"] == 1
        assert compute_counters["partition"] == n
        assert compute_counters["taskgraph"] == n
        assert compute_counters["schedule"] == n
        assert pool_spy.started == [2, 2]
        assert all(pool_spy.forked_clean)
        assert multiprocessing.active_children() == []

    def test_partition_nodes_never_enter_the_pool(
        self, compute_counters, pool_spy
    ):
        # Five partition nodes are ready in one round; they run here,
        # each on its own bisection tree, and only the downstream
        # misses are submitted to the round pools.
        plan = compile_plan(seed_sweep(5))
        result = DagScheduler(ArtifactStore(), max_workers=2).execute(plan)
        assert not result.failed
        stages = {plan.nodes[k].stage for k in pool_spy.submitted}
        assert stages == {"taskgraph", "schedule"}
        assert {
            pid for s, pid in compute_counters.lines() if s == "partition"
        } == {os.getpid()}
        assert {
            pid for s, pid in compute_counters.lines() if s == "schedule"
        } - {os.getpid()}

    def test_pool_never_pickles_stage_objects(self, monkeypatch, pool_spy):
        # Workers inherit the upstream objects at fork and send back
        # packed arrays: no mesh, decomposition or task graph crosses
        # a process boundary.
        def refuse(self, *args):
            raise AssertionError(f"a {type(self).__name__} was pickled")

        for cls in (Mesh, DomainDecomposition, TaskDAG):
            monkeypatch.setattr(cls, "__reduce__", refuse)
            monkeypatch.setattr(cls, "__reduce_ex__", refuse)
        records = run_batch(seed_sweep(3), store=ArtifactStore(), n_jobs=2)
        assert pool_spy.started == [2, 2]
        assert all(rec.metrics is not None for rec in records)

    def test_warm_batch_forks_no_pool(self, tmp_path, pool_spy):
        scenarios = seed_sweep(3)
        run_batch(scenarios, store=ArtifactStore(tmp_path), n_jobs=2)
        assert pool_spy.started
        # Partitions ran here under claims; each claim's heartbeat
        # stopped before a round forked.
        assert all(pool_spy.forked_clean)
        pool_spy.started.clear()
        # A fresh store on the same directory: every node is a disk
        # hit (or rides one), resolved without a pool.
        warm = run_batch(scenarios, store=ArtifactStore(tmp_path), n_jobs=2)
        assert pool_spy.started == []
        for rec in warm:
            assert {r.cache for r in rec.provenance.values()} <= {
                "disk",
                "shared",
            }

    def test_scheduler_counters_agree(self):
        n = 4
        plan = compile_plan(seed_sweep(n))
        result = DagScheduler(ArtifactStore(), max_workers=2).execute(plan)
        counters = stage_counts(plan)
        computed = {name: 0 for name in STAGE_ORDER}
        for node in result.nodes.values():
            if node.state == "done" and node.cache is None:
                computed[node.stage] += 1
        assert computed["mesh"] == 1
        assert counters["mesh"]["shared"] == n - 1
        assert computed["levels"] == 1
        assert computed["partition"] == n
        assert counters["partition"]["shared"] == 0

    def test_bit_identical_to_independent_linear_runs(self):
        # One merged plan vs one single-scenario run per scenario, each
        # on its own fresh store.
        n = 3
        scenarios = seed_sweep(n)
        merged = run_batch(scenarios, store=ArtifactStore(), n_jobs=2)
        for sc, rec in zip(scenarios, merged):
            oracle = Pipeline(ArtifactStore(), n_jobs=1).run(sc)
            for name in STAGE_ORDER:
                assert (
                    rec.provenance[name].digest
                    == oracle.provenance[name].digest
                )
            np.testing.assert_array_equal(
                rec.mesh.cell_centers, oracle.mesh.cell_centers
            )
            np.testing.assert_array_equal(rec.tau, oracle.tau)
            np.testing.assert_array_equal(
                rec.decomp.domain, oracle.decomp.domain
            )
            np.testing.assert_array_equal(
                rec.dag.edges, oracle.dag.edges
            )
            np.testing.assert_array_equal(
                rec.trace.start, oracle.trace.start
            )
            assert rec.metrics.makespan == oracle.metrics.makespan

    def test_sweep_records_equal_for_every_worker_count(self, tmp_path):
        # A small downstream sweep behind one stored partition, as the
        # benchmark runs it: inline, on two workers and on the default
        # (one per CPU).  Every record and the store's own accounting
        # must be the same.
        base = Scenario.standard(
            "cylinder",
            domains=16,
            processes=4,
            cores=1,
            strategy="MC_TL",
            scale=8,
            seed=3,
        )
        sweep = expand_sweep(
            base,
            {
                "scheme": ["euler", "heun"],
                "iterations": [1, 4],
                "scheduler": ["eager", "cp"],
                "cores": [1, 8],
            },
        )
        prefix = tmp_path / "prefix"
        Pipeline(ArtifactStore(prefix)).run(sweep[0], through="partition")
        runs = {}
        for n_jobs in (1, 2, None):
            root = tmp_path / f"jobs{n_jobs}"
            shutil.copytree(prefix, root)
            store = ArtifactStore(root)
            runs[n_jobs] = run_batch(sweep, store=store, n_jobs=n_jobs), store
            assert multiprocessing.active_children() == []
        want, want_store = runs[1]
        assert want_store.stats.misses == 20  # 4 task graphs, 16 schedules
        for n_jobs in (2, None):
            got, store = runs[n_jobs]
            assert store.stats == want_store.stats
            for a, b in zip(want, got):
                assert {
                    name: (r.digest, r.cache)
                    for name, r in a.provenance.items()
                } == {
                    name: (r.digest, r.cache)
                    for name, r in b.provenance.items()
                }
                np.testing.assert_array_equal(
                    a.decomp.domain, b.decomp.domain
                )
                np.testing.assert_array_equal(a.dag.edges, b.dag.edges)
                for f in ("start", "end", "worker"):
                    np.testing.assert_array_equal(
                        getattr(a.trace, f), getattr(b.trace, f)
                    )
                assert a.metrics == b.metrics

    def test_parallel_workers_deterministic(self):
        scenarios = seed_sweep(4)
        serial = run_batch(scenarios, store=ArtifactStore(), n_jobs=1)
        wide = run_batch(scenarios, store=ArtifactStore(), n_jobs=4)
        for a, b in zip(serial, wide):
            assert a.metrics.makespan == b.metrics.makespan
            np.testing.assert_array_equal(
                a.decomp.domain, b.decomp.domain
            )

    def test_schedule_round_is_submitted_largest_first(self, pool_spy):
        # Eight task graphs of different sizes behind one partition:
        # the schedule round goes to the pool largest task graph
        # first, and nothing the batch returns or counts depends on it.
        scenarios = expand_sweep(
            base_scenario(),
            {"iterations": [1, 3, 2, 4], "scheme": ["heun", "euler"]},
        )
        stores = {n: ArtifactStore() for n in (1, 2)}
        runs = {
            n: run_batch(scenarios, store=stores[n], n_jobs=n)
            for n in (1, 2)
        }
        dags = {
            rec.provenance["schedule"].digest: rec.dag for rec in runs[2]
        }
        submitted = [k for k in pool_spy.submitted if k in dags]
        assert sorted(submitted) == sorted(dags)
        sizes = [dags[k].num_tasks + dags[k].num_edges for k in submitted]
        assert len(set(sizes)) == len(sizes)
        assert sizes == sorted(sizes, reverse=True)
        assert stores[2].stats == stores[1].stats
        for a, b in zip(runs[1], runs[2]):
            assert {
                name: (r.digest, r.cache) for name, r in a.provenance.items()
            } == {
                name: (r.digest, r.cache) for name, r in b.provenance.items()
            }
            for f in ("start", "end", "worker"):
                np.testing.assert_array_equal(
                    getattr(a.trace, f), getattr(b.trace, f)
                )
            assert a.metrics == b.metrics


class TestSharedProvenance:
    def test_riders_record_shared(self):
        records = run_batch(seed_sweep(3), store=ArtifactStore(), n_jobs=1)
        first, riders = records[0], records[1:]
        assert first.provenance["mesh"].cache is None  # computed it
        assert first.shared_hits == 0
        for rec in riders:
            assert rec.provenance["mesh"].cache == "shared"
            assert rec.provenance["levels"].cache == "shared"
            assert rec.provenance["partition"].cache is None
            assert rec.shared_hits == 2
            assert rec.store_hits == 0
            assert rec.cache_hits == 2  # shared counts as a hit
            assert rec.provenance["mesh"].wall_time == 0.0

    def test_explain_distinguishes_shared_from_store(self):
        records = run_batch(seed_sweep(2), store=ArtifactStore(), n_jobs=1)
        text = records[1].explain()
        assert "shared" in text
        assert "2 shared-prefix reuse(s)" in text
        assert "0 store hit(s)" in text
        # The computing job's explain has no shared footer.
        assert "shared" not in records[0].explain()

    def test_store_hits_stay_distinct(self):
        store = ArtifactStore()
        sc = base_scenario()
        Pipeline(store, n_jobs=1).run(sc)
        again = Pipeline(store, n_jobs=1).run(sc)
        assert again.all_cached
        assert again.store_hits == 5
        assert again.shared_hits == 0


class TestFailureIsolation:
    def test_unshared_suffix_failure_fails_only_that_job(
        self, monkeypatch
    ):
        scenarios = seed_sweep(3)
        poison = scenarios[1].partition
        orig = PartitionStage.compute

        def failing(config, mesh, tau):
            if config == poison:
                raise RuntimeError("injected partition failure")
            return orig(config, mesh, tau)

        monkeypatch.setattr(
            PartitionStage, "compute", staticmethod(failing)
        )
        plan = compile_plan(scenarios)
        result = DagScheduler(ArtifactStore(), max_workers=2).execute(plan)

        assert result.job_state(0) == "done"
        assert result.job_state(2) == "done"
        assert result.job_state(1) == "failed"
        err = result.job_error(1)
        assert isinstance(err, RuntimeError)
        assert "injected partition failure" in str(err)
        # The failed job's suffix was skipped, not run.
        chain = plan.job_stages[1]
        assert result.nodes[chain["partition"]].state == "failed"
        assert result.nodes[chain["taskgraph"]].state == "skipped"
        assert result.nodes[chain["schedule"]].state == "skipped"
        # The shared prefix is done and healthy for the others.
        assert result.nodes[chain["mesh"]].state == "done"

    def test_pooled_node_failure_fails_only_that_job(
        self, monkeypatch, pool_spy
    ):
        scenarios = iteration_sweep()
        poison = scenarios[1].taskgraph
        orig = TaskGraphStage.compute

        def failing(config, *upstream):
            if config == poison:
                raise ValueError("injected taskgraph failure")
            return orig(config, *upstream)

        monkeypatch.setattr(
            TaskGraphStage, "compute", staticmethod(failing)
        )
        plan = compile_plan(scenarios)
        result = DagScheduler(ArtifactStore(), max_workers=2).execute(plan)

        # The taskgraph round ran on a pool; the schedule round had
        # two misses left, so it did too.
        assert pool_spy.started == [2, 2]
        chain = plan.job_stages[1]
        assert result.nodes[chain["taskgraph"]].state == "failed"
        err = result.job_error(1)
        assert type(err) is ValueError
        assert "injected taskgraph failure" in str(err)
        assert result.nodes[chain["schedule"]].state == "skipped"
        assert result.job_state(0) == "done"
        assert result.job_state(2) == "done"
        states = [n.state for n in result.nodes.values()]
        assert states.count("failed") == 1
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_its_nodes_without_a_hang(
        self, monkeypatch, pool_spy
    ):
        scenarios = iteration_sweep()
        poison = scenarios[1].taskgraph
        orig = TaskGraphStage.compute
        parent = os.getpid()

        def dying(config, *upstream):
            if config == poison and os.getpid() != parent:
                os._exit(3)  # a worker killed mid-round
            return orig(config, *upstream)

        monkeypatch.setattr(TaskGraphStage, "compute", staticmethod(dying))
        plan = compile_plan(scenarios)
        results = []
        runner = threading.Thread(
            target=lambda: results.append(
                DagScheduler(ArtifactStore(), max_workers=2).execute(plan)
            ),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "execute hung on a broken pool"
        (result,) = results

        assert pool_spy.started[0] == 2
        killed = result.nodes[plan.job_stages[1]["taskgraph"]]
        assert killed.state == "failed"
        assert isinstance(killed.error, BrokenProcessPool)
        # Whatever the broken pool had not finished failed with it;
        # the rest of the round stands.
        for chain in plan.job_stages:
            node = result.nodes[chain["taskgraph"]]
            after = result.nodes[chain["schedule"]].state
            if node.state == "failed":
                assert isinstance(node.error, BrokenProcessPool)
                assert after == "skipped"
            else:
                assert node.state == "done"
                assert after == "done"
        assert result.job_state(1) == "failed"
        assert multiprocessing.active_children() == []

    def test_run_batch_raises_the_causal_error(self, monkeypatch):
        scenarios = seed_sweep(2)
        poison = scenarios[0].partition
        orig = PartitionStage.compute

        def failing(config, mesh, tau):
            if config == poison:
                raise RuntimeError("boom")
            return orig(config, mesh, tau)

        monkeypatch.setattr(
            PartitionStage, "compute", staticmethod(failing)
        )
        with pytest.raises(RuntimeError, match="boom"):
            run_batch(scenarios, store=ArtifactStore(), n_jobs=1)

    def test_on_node_exceptions_are_swallowed(self):
        plan = compile_plan([base_scenario()], through="levels")

        def bad_callback(node):
            raise ValueError("observer bug")

        result = DagScheduler(
            ArtifactStore(), max_workers=1, on_node=bad_callback
        ).execute(plan)
        assert all(n.state == "done" for n in result.nodes.values())


class TestPlanResultViews:
    def test_job_cache_attribution(self):
        plan = compile_plan(seed_sweep(2))
        result = DagScheduler(ArtifactStore(), max_workers=1).execute(plan)
        mesh_key = plan.job_stages[0]["mesh"]
        assert result.job_cache(0, mesh_key) is None
        assert result.job_cache(1, mesh_key) == "shared"
        # On a warm store every job sees the real store provenance.
        warm = DagScheduler(
            ArtifactStore(), max_workers=1
        )
        warm_result = warm.execute(plan)
        # fresh store: recompute; now rerun on the same store
        warm_result2 = warm.execute(plan)
        assert warm_result2.job_cache(0, mesh_key) == "memory"
        assert warm_result2.job_cache(1, mesh_key) == "memory"
