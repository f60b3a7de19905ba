"""Integration tests of the experiment harnesses (small scales).

These verify each table/figure harness runs end-to-end and asserts the
paper's *qualitative* claims at reduced mesh scale.  The claims at the
default scale, over seeds, are the harnesses' own ``CLAIMS``, scored
into ``REPRODUCTION.json`` by ``repro reproduce``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    baseline_ablation,
    dual_phase,
    fig05_validation,
    fig06_unbounded,
    fig07_10_characteristics,
    fig08_taskgraph_shape,
    fig09_speedup,
    fig11_sweep,
    fig12_nozzle,
    fig13_production,
    scheduler_ablation,
    table1,
)

# Reduced scales: cylinder/cube depth 8, nozzle depth 7.
SCALES = {"cylinder": 8, "cube": 8, "pprime_nozzle": 7}


class TestTable1:
    def test_runs_and_shapes(self):
        r = table1.run(scale=8)
        for name in r.names:
            assert r.replica_cell_fraction[name].sum() == pytest.approx(1.0)
            assert len(r.replica_counts[name]) == len(
                r.paper_cell_fraction[name]
            )

    def test_report_renders(self):
        r = table1.run(scale=8)
        out = table1.report(r)
        assert "CYLINDER" in out and "paper %Cells" in out


class TestFig5:
    def test_variance_reasonable(self):
        # Scale 8, not 7: at scale 7 the model-vs-measured variance of
        # most partitions sits at 0.6-0.9 (µs-long tasks, timer noise);
        # at scale 8 it reads 0.13-0.47 over seeds 0-2.
        r = fig05_validation.run(scale=8, warmup_iterations=1)
        # The paper reports ~20%; allow a generous envelope at tiny
        # scale where per-task overhead noise is proportionally larger.
        assert 0.0 <= r.variance < 0.8
        assert r.makespan_measured > 0
        assert "variance" in fig05_validation.report(r)


class TestFig6:
    def test_idleness_persists_with_unbounded_cores(self):
        r = fig06_unbounded.run(scale=8, domains=32, processes=32)
        # Makespan equals the critical path (eager + unbounded cores
        # is an optimal schedule).
        assert r.makespan == pytest.approx(r.critical_path, rel=1e-9)
        # And still, processes idle a substantial share of the time.
        assert r.mean_idle_fraction > 0.05
        assert len(r.idle_fraction_per_process) == 32


class TestFig7And10:
    def test_sc_oc_concentrated_mc_tl_spread(self):
        r_sc = fig07_10_characteristics.run(
            "SC_OC", scale=8, domains=8, processes=8
        )
        r_mc = fig07_10_characteristics.run(
            "MC_TL", scale=8, domains=8, processes=8
        )
        # Total cost is balanced under both strategies…
        assert r_sc.total_cost_imbalance < 1.3
        assert r_mc.total_cost_imbalance < 1.3
        # …but SC_OC concentrates levels; MC_TL mixes them.
        assert r_mc.concentration < r_sc.concentration
        # SC_OC has at least one process doing most work in
        # subiteration 0 (paper: "almost entirely").
        assert (
            r_sc.max_first_subiteration_share
            > r_mc.max_first_subiteration_share
        )

    def test_report_renders(self):
        r = fig07_10_characteristics.run(
            "MC_TL", scale=8, domains=8, processes=8
        )
        out = fig07_10_characteristics.report(r)
        assert "MC_TL" in out


class TestFig8:
    def test_mc_tl_finer_granularity(self):
        r = fig08_taskgraph_shape.run(scale=7)
        assert r.total_tasks["MC_TL"] > r.total_tasks["SC_OC"]
        assert r.domains_active_every_phase["MC_TL"]
        assert not r.domains_active_every_phase["SC_OC"]


class TestFig9:
    def test_mc_tl_faster_both_meshes(self):
        # At ~40 cells per domain one seed's partition swings the cube
        # ratio between ×0.8 and ×1.6, so the claim is held on the
        # geomean over three seeds, not on one draw.
        runs = [
            fig09_speedup.run(
                scale=8, domains=32, processes=8, cores=16, seed=seed
            )
            for seed in range(3)
        ]
        for name in runs[0].meshes:
            speedups = [r.speedup[name] for r in runs]
            assert np.exp(np.mean(np.log(speedups))) > 1.2, name
            assert np.mean(
                [r.efficiency_mc_tl[name] for r in runs]
            ) > np.mean([r.efficiency_sc_oc[name] for r in runs]), name


class TestFig11:
    def test_trends(self):
        r = fig11_sweep.run(
            meshes=("cylinder",),
            domain_counts=(8, 16, 32),
            processes=8,
            cores=16,
            scale=8,
        )
        ratio = r.ratio["cylinder"]
        # MC_TL wins at every domain count…
        assert np.all(ratio > 1.0)
        # …and MC_TL pays more communication.
        assert np.all(
            r.comm_mc_tl["cylinder"] >= r.comm_sc_oc["cylinder"]
        )
        # Communication grows with domain count for both.
        assert r.comm_sc_oc["cylinder"][-1] > r.comm_sc_oc["cylinder"][0]


class TestFig12:
    def test_nozzle_improvement(self):
        r = fig12_nozzle.run(scale=8)
        assert 0.05 < r.improvement < 0.6
        assert r.efficiency_mc_tl > r.efficiency_sc_oc


class TestFig13:
    def test_runs_and_reports(self):
        # Tiny scale: we only require the harness to work end-to-end
        # and produce sane numbers (the gain needs larger meshes, see
        # the module docstring and EXPERIMENTS.md).
        r = fig13_production.run(scale=8)
        assert r.makespan_sc_oc > 0 and r.makespan_mc_tl > 0
        assert r.tasks_mc_tl > r.tasks_sc_oc
        assert "Production replay" in fig13_production.report(r)


class TestDualPhase:
    def test_dual_phase_tradeoff(self):
        # At scale 8 (~40 cells per domain) DUAL against SC_OC is a
        # coin flip from seed to seed; on the registry mesh (scale 10)
        # it wins by 10-20 % at seeds 0 and 1 (EXPERIMENTS.md "One
        # seeding rule for the bisection tree").
        r = dual_phase.run(scale=10, domains=16, processes=4, cores=16)
        # DUAL must beat SC_OC on makespan…
        assert r.makespan["DUAL"] < r.makespan["SC_OC"]
        # …and beat MC_TL on communication volume.
        assert r.comm_volume["DUAL"] <= r.comm_volume["MC_TL"]


class TestExtensionStudies:
    def test_multi_iteration(self):
        from repro.experiments import multi_iteration

        r = multi_iteration.run(
            scale=8, iterations=2, domains=16, processes=4, cores=8
        )
        assert r.amortized["MC_TL"] <= r.single["MC_TL"] * 1.001
        assert r.speedup_amortized > 1.0

    def test_strong_scaling(self):
        from repro.experiments import strong_scaling

        r = strong_scaling.run(
            scale=8, domains=16, process_counts=(2, 4, 8), cores=4
        )
        assert (
            r.makespan["MC_TL"].min() <= r.makespan["SC_OC"].min()
        )

    def test_distribution_sensitivity(self):
        from repro.experiments import distribution_sensitivity

        r = distribution_sensitivity.run(
            scale=8,
            fine_fractions=(0.05, 0.2),
            domains=8,
            processes=4,
            cores=8,
        )
        assert len(r.speedup) == 2
        assert np.all(r.speedup > 0.8)

    def test_level_evolution(self):
        from repro.experiments import level_evolution

        r = level_evolution.run(
            scale=7, iterations=3, num_domains=4, num_processes=2
        )
        assert len(r.level_changes) == 3

    def test_octree3d(self):
        from repro.experiments import octree3d

        r = octree3d.run(max_depth=6, domains=8, processes=4, cores=4)
        assert r.makespan_sc_oc > 0 and r.makespan_mc_tl > 0

    def test_comm_sensitivity(self):
        from repro.experiments import comm_sensitivity

        r = comm_sensitivity.run(
            scale=8,
            domains=16,
            processes=8,
            cores=8,
            latencies=(0.0, 20.0),
            strategies=("SC_OC", "MC_TL"),
        )
        assert r.ratio()[0] > 1.0

    def test_runtime_validation(self):
        from repro.experiments import runtime_validation

        r = runtime_validation.run(scale=7, domains=4, processes=2, cores=2)
        assert all(r.matches_serial.values())


class TestAblations:
    def test_scheduler_ablation_supports_paper_claim(self):
        """No scheduler rescues SC_OC to MC_TL-eager level."""
        r = scheduler_ablation.run(
            scale=8, domains=16, processes=8, cores=8
        )
        best_sc = min(
            r.makespan[("SC_OC", s)] for s in r.schedulers
        )
        assert best_sc > r.makespan[("MC_TL", "eager")]

    def test_baseline_ablation(self):
        r = baseline_ablation.run(
            scale=8, domains=16, processes=8, cores=8
        )
        # MC_TL is the best strategy of the four.
        best = max(r.speedup_vs_sc_oc, key=r.speedup_vs_sc_oc.get)
        assert best == "MC_TL"
