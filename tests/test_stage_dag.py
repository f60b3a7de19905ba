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
from repro.pipeline.hashing import stage_digest
from repro.pipeline.stages import (
    STAGE_INPUTS,
    STAGE_ORDER,
    STAGES,
    LevelStage,
    MeshStage,
    PartitionStage,
)


def base_scenario(**overrides) -> Scenario:
    opts = dict(
        domains=4, processes=2, cores=2, scale=6, strategy="SC_OC"
    )
    opts.update(overrides)
    return Scenario.standard("cube", **opts)


def seed_sweep(n: int) -> list[Scenario]:
    """N scenarios differing only in partition/schedule seed."""
    return expand_sweep(base_scenario(), {"seed": list(range(n))})


class TestCompilePlan:
    def test_single_scenario_shape(self):
        plan = compile_plan([base_scenario()])
        assert len(plan) == 5
        assert plan.num_jobs == 1
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
        counts = plan.stage_counts()
        assert counts["mesh"] == {"nodes": 1, "job_stages": n}
        assert counts["levels"] == {"nodes": 1, "job_stages": n}
        assert counts["partition"]["nodes"] == n
        assert counts["taskgraph"]["nodes"] == n
        assert counts["schedule"]["nodes"] == n
        assert plan.deduped_stages == 2 * (n - 1)
        mesh_key = plan.job_stages[0]["mesh"]
        assert plan.nodes[mesh_key].jobs == tuple(range(n))
        assert plan.nodes[mesh_key].shared

    def test_distinct_meshes_do_not_merge(self):
        plan = compile_plan(
            [base_scenario(scale=5), base_scenario(scale=6)]
        )
        assert len(plan) == 10
        assert plan.deduped_stages == 0

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


@pytest.fixture
def compute_counters(monkeypatch):
    """Count stage ``compute`` invocations for mesh/levels/partition."""
    counters = {"mesh": 0, "levels": 0, "partition": 0}
    originals = {
        "mesh": MeshStage.compute,
        "levels": LevelStage.compute,
        "partition": PartitionStage.compute,
    }

    def counting(name):
        orig = originals[name]

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return orig(*args, **kwargs)

        return staticmethod(wrapper)

    monkeypatch.setattr(MeshStage, "compute", counting("mesh"))
    monkeypatch.setattr(LevelStage, "compute", counting("levels"))
    monkeypatch.setattr(
        PartitionStage, "compute", counting("partition")
    )
    return counters


class TestMergedExecution:
    def test_shared_stages_compute_exactly_once(self, compute_counters):
        n = 5
        scenarios = seed_sweep(n)
        records = run_batch(scenarios, store=ArtifactStore(), n_jobs=2)
        assert len(records) == n
        # The acceptance criterion: mesh and levels ran once for the
        # whole sweep, partitions once per seed.
        assert compute_counters["mesh"] == 1
        assert compute_counters["levels"] == 1
        assert compute_counters["partition"] == n

    def test_scheduler_counters_agree(self):
        n = 4
        plan = compile_plan(seed_sweep(n))
        result = DagScheduler(ArtifactStore(), max_workers=2).execute(plan)
        counters = result.stage_counters()
        assert counters["mesh"]["computed"] == 1
        assert counters["mesh"]["shared"] == n - 1
        assert counters["levels"]["computed"] == 1
        assert counters["partition"]["computed"] == n
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

    def test_parallel_workers_deterministic(self):
        scenarios = seed_sweep(4)
        serial = run_batch(scenarios, store=ArtifactStore(), n_jobs=1)
        wide = run_batch(scenarios, store=ArtifactStore(), n_jobs=4)
        for a, b in zip(serial, wide):
            assert a.metrics.makespan == b.metrics.makespan
            np.testing.assert_array_equal(
                a.decomp.domain, b.decomp.domain
            )


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

    def test_should_stop_cancels_remaining(self):
        plan = compile_plan(seed_sweep(2))
        calls = []

        def stop_after_two():
            return len(calls) >= 2

        def on_node(node):
            calls.append(node.key)

        result = DagScheduler(
            ArtifactStore(),
            max_workers=1,
            on_node=on_node,
            should_stop=stop_after_two,
        ).execute(plan)
        states = {n.state for n in result.nodes.values()}
        assert "cancelled" in states
        assert result.job_state(0) == "cancelled"

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
