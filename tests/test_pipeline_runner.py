"""Pipeline runner tests: numerical identity with the direct chain,
full-chain cache hits on re-invocation, scenario registry, sweeps and
the batch runner.

These back the PR's acceptance criteria: the ported experiments must
be numerically identical to calling the subsystems directly, and a
second invocation must hit the store for every upstream stage
(observable via ``RunRecord.provenance``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flusim import ClusterConfig, schedule_metrics, simulate
from repro.partitioning import make_decomposition
from repro.pipeline import (
    ArtifactStore,
    LevelConfig,
    MeshConfig,
    Pipeline,
    Scenario,
    expand_sweep,
    get_scenario,
    run_batch,
)
from repro.pipeline.registry import SCENARIOS
from repro.taskgraph import generate_task_graph
from repro.temporal import levels_from_depth


def fresh_pipeline() -> Pipeline:
    """A pipeline over its own empty memory-only store."""
    return Pipeline(ArtifactStore(), n_jobs=1)


class TestNumericalIdentity:
    @pytest.mark.parametrize("strategy", ["SC_OC", "MC_TL"])
    def test_matches_direct_chain(self, strategy):
        sc = Scenario.standard(
            "cylinder",
            domains=6,
            processes=3,
            cores=2,
            strategy=strategy,
            scale=6,
            seed=0,
        )
        rec = fresh_pipeline().run(sc)

        # the same chain, called directly on the subsystems
        from repro.mesh import MESH_FACTORIES

        mesh = MESH_FACTORIES["cylinder"](max_depth=6)
        tau = levels_from_depth(mesh, num_levels=4)
        decomp = make_decomposition(
            mesh, tau, 6, 3, strategy=strategy, seed=0
        )
        dag = generate_task_graph(mesh, tau, decomp)
        trace = simulate(
            dag, ClusterConfig(3, 2), scheduler="eager", seed=0
        )
        metrics = schedule_metrics(dag, trace)

        np.testing.assert_array_equal(rec.tau, tau)
        np.testing.assert_array_equal(rec.decomp.domain, decomp.domain)
        np.testing.assert_array_equal(
            rec.dag.tasks.cost, dag.tasks.cost
        )
        np.testing.assert_array_equal(rec.trace.start, trace.start)
        np.testing.assert_array_equal(rec.trace.end, trace.end)
        assert rec.metrics.makespan == metrics.makespan
        assert rec.metrics.total_work == metrics.total_work

    def test_run_record_unpacks_like_legacy_tuple(self):
        sc = Scenario.standard(
            "cube", domains=4, processes=2, cores=2, scale=6
        )
        rec = fresh_pipeline().run(sc)
        dag, trace, metrics = rec
        assert dag is rec.dag
        assert trace is rec.trace
        assert metrics is rec.metrics
        trace.validate_against(dag)


class TestFullChainReuse:
    def test_second_invocation_hits_every_stage(self):
        pipe = fresh_pipeline()
        sc = Scenario.standard(
            "cube", domains=4, processes=2, cores=2, scale=6
        )
        first = pipe.run(sc)
        assert first.cache_hits == 0
        second = pipe.run(sc)
        assert second.all_cached
        assert second.cache_hits == 5
        # memory layer preserves identity: same objects come back
        assert second.mesh is first.mesh
        assert second.decomp is first.decomp
        assert second.dag is first.dag

    def test_prefix_reuse_through_shorter_chain(self):
        pipe = fresh_pipeline()
        sc = Scenario.standard(
            "cube", domains=4, processes=2, cores=2, scale=6
        )
        pipe.run(sc, through="partition")
        rec = pipe.run(sc)
        prov = rec.provenance
        assert prov["mesh"].hit
        assert prov["levels"].hit
        assert prov["partition"].hit
        assert not prov["taskgraph"].hit

    def test_explain_lists_all_stages(self):
        rec = fresh_pipeline().run(
            Scenario.standard(
                "cube", domains=4, processes=2, cores=2, scale=6
            )
        )
        text = rec.explain()
        for name in ("mesh", "levels", "partition", "taskgraph", "schedule"):
            assert name in text
        assert "computed" in text


class TestRegistry:
    def test_known_scenarios(self):
        assert {
            "nozzle_validation",
            "unbounded",
            "characteristics",
            "speedup",
        } <= set(SCENARIOS)

    def test_get_scenario_with_options(self):
        sc = get_scenario(
            "characteristics", strategy="MC_TL", domains=32
        )
        assert sc.partition.strategy == "MC_TL"
        assert sc.partition.domains == 32

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("does_not_exist")

    def test_unknown_option_raises(self):
        sc = SCENARIOS["characteristics"]
        with pytest.raises(ValueError, match="unknown scenario option"):
            sc.with_options(granularity=3)

    def test_mesh_option_refreshes_level_cap(self):
        sc = SCENARIOS["characteristics"].with_options(
            mesh="pprime_nozzle"
        )
        assert sc.mesh.name == "pprime_nozzle"
        assert sc.levels == LevelConfig(num_levels=3)


class TestSweepAndBatch:
    def test_expand_sweep_cross_product(self):
        base = SCENARIOS["characteristics"]
        out = expand_sweep(
            base,
            {"domains": [8, 16], "strategy": ["SC_OC", "MC_TL"]},
        )
        assert len(out) == 4
        combos = {(s.partition.domains, s.partition.strategy) for s in out}
        assert combos == {
            (8, "SC_OC"), (8, "MC_TL"), (16, "SC_OC"), (16, "MC_TL"),
        }

    def test_batch_matches_sequential(self):
        base = Scenario.standard(
            "cube", domains=4, processes=2, cores=2, scale=6
        )
        scenarios = expand_sweep(base, {"strategy": ["SC_OC", "MC_TL"]})

        seq = [
            fresh_pipeline().run(sc) for sc in scenarios
        ]
        batch = run_batch(
            scenarios, store=ArtifactStore(), n_jobs=2
        )
        assert len(batch) == len(seq)
        for a, b in zip(batch, seq):
            assert a.metrics.makespan == b.metrics.makespan
            np.testing.assert_array_equal(
                a.decomp.domain, b.decomp.domain
            )

    def test_batch_short_circuits_cached_scenarios(self):
        store = ArtifactStore()
        base = Scenario.standard(
            "cube", domains=4, processes=2, cores=2, scale=6
        )
        scenarios = expand_sweep(base, {"domains": [2, 4]})
        run_batch(scenarios, store=store, n_jobs=1)
        again = run_batch(scenarios, store=store, n_jobs=2)
        assert all(rec.all_cached for rec in again)

    def test_pipeline_n_jobs_shares_partition_key(self):
        # The labels do not depend on the worker count, so it stays out
        # of the content address: a serial and a parallel pipeline
        # address one partition, and the second run is a store hit.
        sc = Scenario.standard(
            "cube", domains=4, processes=2, cores=2, scale=6
        )
        store = ArtifactStore()
        first = Pipeline(store, n_jobs=1).run(sc, through="partition")
        rec = Pipeline(store, n_jobs=2).run(sc, through="partition")
        assert (
            rec.provenance["partition"].digest
            == first.provenance["partition"].digest
        )
        assert rec.provenance["partition"].cache == "memory"
        assert sc.partition.n_jobs is None  # nothing written back


class TestCLI:
    def test_pipeline_scenarios_listing(self, capsys):
        from repro.cli import main

        assert main(["pipeline", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "characteristics" in out
        assert "unbounded" in out

    def test_pipeline_run_with_sweep_and_explain(self, capsys):
        from repro.cli import main

        rc = main([
            "pipeline", "run",
            "--scenario", "characteristics",
            "--set", "scale=6",
            "--set", "domains=4",
            "--set", "processes=2",
            "--sweep", "strategy=SC_OC,MC_TL",
            "--explain",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "strategy=SC_OC" in out and "strategy=MC_TL" in out
        assert "makespan" in out
        assert "partition" in out  # --explain stage table

    def test_experiment_choices_are_registry_driven(self):
        from repro.cli import main
        from repro.experiments.registry import available

        assert "fig09" in available()
        with pytest.raises(SystemExit):
            main(["experiment", "not_an_experiment"])
