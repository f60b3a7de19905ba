"""Fuzzing harness, DAG verifier, and the degraded-environment
satellites (REPRO_N_JOBS parsing, corrupt-checkpoint fallback)."""

from __future__ import annotations

import itertools
import os
import warnings

import numpy as np
import pytest

from repro.flusim.schedulers import SCHEDULERS
from repro.fuzz import run_fuzz
from repro.fuzz.harness import _downstream_case
from repro.fuzz.generators import (
    GRAPH_GENERATORS,
    MESH_GENERATORS,
    make_graph_case,
    make_mesh_case,
)
from repro.taskgraph import generate_task_graph, verify_dag
from tests.oracles.invariants import validate_mesh


class TestGenerators:
    def test_graph_cases_deterministic(self):
        for i in range(10):
            a = make_graph_case(np.random.default_rng(i))
            b = make_graph_case(np.random.default_rng(i))
            assert a.name == b.name
            assert np.array_equal(a.graph.xadj, b.graph.xadj)
            assert np.array_equal(a.graph.vwgt, b.graph.vwgt)

    def test_every_graph_generator_yields_valid_csr(self):
        from repro.graph import validate_csr

        for gen in GRAPH_GENERATORS:
            case = gen(np.random.default_rng(3))
            validate_csr(case.graph)

    def test_every_mesh_generator_yields_valid_mesh(self):
        for gen in MESH_GENERATORS:
            case = gen(np.random.default_rng(4))
            validate_mesh(case.mesh)
            assert len(case.tau) == case.mesh.num_cells


class TestHarness:
    def test_smoke_run_clean(self):
        report = run_fuzz(6, start=0)
        assert report.ok, report.summary()
        assert report.contract_checks > 0
        assert report.dag_checks > 0

    def test_downstream_cases_cover_every_policy_and_shape(self):
        # Eighteen consecutive seeds meet each (policy, cores) pair
        # once, so every policy is also checked multi-core.
        for start in (0, 7):
            cases = [_downstream_case(s) for s in range(start, start + 18)]
            assert sorted(cases, key=repr) == sorted(
                itertools.product(SCHEDULERS, (1, 2, None)), key=repr
            )

    def test_report_counts(self):
        report = run_fuzz(3, start=100)
        assert report.seeds == 3
        assert report.cases == 6

    def test_progress_callback(self):
        seen = []
        run_fuzz(2, progress=lambda i, total: seen.append((i, total)))
        assert seen == [(0, 2), (1, 2)]


class TestVerifyDag:
    def test_clean_euler_and_heun(self, small_cube_mesh, small_cube_tau):
        from repro.partitioning.strategies import make_decomposition

        decomp = make_decomposition(
            small_cube_mesh, small_cube_tau, 4, 2, strategy="SC_OC", seed=0
        )
        for scheme in ("euler", "heun"):
            dag = generate_task_graph(
                small_cube_mesh, small_cube_tau, decomp, scheme=scheme
            )
            assert (
                verify_dag(
                    dag, small_cube_mesh, small_cube_tau, scheme=scheme
                )
                == []
            )

    def test_detects_reversed_edge(self, cube_dag_sc):
        import copy

        dag = copy.deepcopy(cube_dag_sc)
        dag.edges[0] = dag.edges[0][::-1]
        bad = verify_dag(dag)
        assert any("generation order" in v for v in bad)

    def test_detects_coverage_loss(
        self, small_cube_mesh, small_cube_tau, cube_dag_sc
    ):
        import copy

        dag = copy.deepcopy(cube_dag_sc)
        dag.tasks.num_objects[0] += 1  # double-counts one object
        bad = verify_dag(dag, small_cube_mesh, small_cube_tau)
        assert bad

    def test_strict_raises(self, cube_dag_sc):
        import copy

        dag = copy.deepcopy(cube_dag_sc)
        dag.edges[0] = dag.edges[0][::-1]
        with pytest.raises(ValueError, match="invariant"):
            verify_dag(dag, strict=True)

    def test_wrong_scheme_name(self, cube_dag_sc):
        with pytest.raises(ValueError, match="scheme"):
            verify_dag(cube_dag_sc, scheme="rk4")

    def test_driver_debug_flag(self, flat_mesh):
        from repro.solver import blast_wave
        from repro.solver.driver import SimulationDriver

        driver = SimulationDriver(
            flat_mesh,
            blast_wave(flat_mesh),
            num_domains=2,
            num_processes=2,
            debug_verify_dag=True,
        )
        result = driver.run(1)
        assert len(result.records) == 1


def _per_cpu() -> int:
    return max(1, os.cpu_count() or 1)


class TestNJobsParsing:
    """The worker count is resolved in one place,
    :func:`repro.util.forkpool.resolve_n_jobs` (importable as
    :func:`repro.pipeline.resolve_n_jobs`): explicit, then pinned, then
    ``REPRO_N_JOBS``, then one worker per CPU; unset, empty or
    unparsable means one worker per CPU."""

    @pytest.mark.parametrize("raw", ["bananas", "not-a-number"])
    def test_env_var_invalid_warns(self, monkeypatch, raw):
        from repro.pipeline import resolve_n_jobs

        monkeypatch.setenv("REPRO_N_JOBS", raw)
        with pytest.warns(RuntimeWarning, match="invalid REPRO_N_JOBS"):
            assert resolve_n_jobs() == _per_cpu()
        # An explicit count never reads the environment.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_n_jobs(3) == 3

    @pytest.mark.parametrize(
        "raw, want", [("3", 3), (" 2 ", 2), ("4", 4)], ids=["3", "padded", "4"]
    )
    def test_env_var_valid(self, monkeypatch, raw, want):
        from repro.pipeline import resolve_n_jobs

        monkeypatch.setenv("REPRO_N_JOBS", raw)
        assert resolve_n_jobs() == want

    def test_env_var_empty(self, monkeypatch):
        from repro.pipeline import resolve_n_jobs

        monkeypatch.setenv("REPRO_N_JOBS", "")
        assert resolve_n_jobs() == _per_cpu()
        monkeypatch.delenv("REPRO_N_JOBS")
        assert resolve_n_jobs() == _per_cpu()

    def test_resolution_order(self, monkeypatch):
        from repro.util.forkpool import pinned_n_jobs, resolve_n_jobs

        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_n_jobs() == _per_cpu()
        monkeypatch.setenv("REPRO_N_JOBS", "5")
        assert resolve_n_jobs() == 5
        with pinned_n_jobs(3):
            assert resolve_n_jobs() == 3
            assert resolve_n_jobs(2) == 2
        assert resolve_n_jobs(2) == 2

    def test_minus_one_is_one_per_cpu(self, monkeypatch):
        from repro.util.forkpool import pinned_n_jobs, resolve_n_jobs

        monkeypatch.setenv("REPRO_N_JOBS", "-1")
        assert resolve_n_jobs() == _per_cpu()
        monkeypatch.setenv("REPRO_N_JOBS", "2")
        assert resolve_n_jobs(-1) == _per_cpu()
        with pinned_n_jobs(-1):
            assert resolve_n_jobs() == _per_cpu()

    def test_nested_pin_restores_on_exit(self, monkeypatch):
        from repro.util.forkpool import pinned_n_jobs, resolve_n_jobs

        monkeypatch.setenv("REPRO_N_JOBS", "5")
        with pinned_n_jobs(2):
            with pinned_n_jobs(3):
                assert resolve_n_jobs() == 3
            assert resolve_n_jobs() == 2
            # ``None`` keeps the pin in force (a config naming no count).
            with pinned_n_jobs(None):
                assert resolve_n_jobs() == 2
            with pytest.raises(RuntimeError):
                with pinned_n_jobs(4):
                    raise RuntimeError("the pin is undone on an error")
            assert resolve_n_jobs() == 2
        assert resolve_n_jobs() == 5

    def test_cli_pin_ends_with_the_command(self, monkeypatch):
        # ``--jobs`` holds for one command only: it sets no process
        # default that a later call would read.
        from repro.cli import main
        from repro.pipeline import resolve_n_jobs

        monkeypatch.setenv("REPRO_N_JOBS", "5")
        seen = []
        monkeypatch.setattr(
            "repro.experiments.registry.run_experiment",
            lambda name, scale=None: seen.append(resolve_n_jobs()) or "",
        )
        assert main(["experiment", "fig08", "--jobs", "1"]) == 0
        assert seen == [1]
        assert resolve_n_jobs() == 5


class TestCheckpointFallback:
    def _write_checkpoint(self, tmp_path, iteration):
        from repro.resilience.checkpoint import Checkpoint, save_checkpoint

        n = 4
        return save_checkpoint(
            tmp_path,
            Checkpoint(
                iteration=iteration,
                U=np.ones((n, 4)),
                acc=np.zeros((n, 4)),
                Ustar=np.zeros((n, 4)),
                acc2=np.zeros((n, 4)),
                tau=np.zeros(n, dtype=np.int32),
                domain=np.zeros(n, dtype=np.int32),
                domain_process=np.zeros(1, dtype=np.int32),
                dt_min=1e-3,
                dt_ref=1e-3,
                num_processes=1,
            ),
        )

    def test_skips_corrupt_latest(self, tmp_path):
        from repro.resilience.checkpoint import find_latest_checkpoint

        good = self._write_checkpoint(tmp_path, 5)
        bad = self._write_checkpoint(tmp_path, 9)
        bad.write_text("{ truncated", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            latest = find_latest_checkpoint(tmp_path, validate=True)
        assert latest == good

    def test_skips_truncated_arrays(self, tmp_path):
        from repro.resilience.checkpoint import find_latest_checkpoint

        good = self._write_checkpoint(tmp_path, 2)
        bad = self._write_checkpoint(tmp_path, 7)
        bad.with_suffix(".npz").write_bytes(b"PK\x03\x04 nope")
        with pytest.warns(RuntimeWarning, match="corrupt checkpoint"):
            latest = find_latest_checkpoint(tmp_path, validate=True)
        assert latest == good

    def test_all_corrupt_returns_none(self, tmp_path):
        from repro.resilience.checkpoint import find_latest_checkpoint

        bad = self._write_checkpoint(tmp_path, 1)
        bad.write_text("nope", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            assert find_latest_checkpoint(tmp_path, validate=True) is None

    def test_without_validate_unchanged(self, tmp_path):
        from repro.resilience.checkpoint import find_latest_checkpoint

        self._write_checkpoint(tmp_path, 5)
        bad = self._write_checkpoint(tmp_path, 9)
        bad.write_text("{ truncated", encoding="utf-8")
        assert find_latest_checkpoint(tmp_path) == bad


class TestFuzzCLI:
    def test_cli_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "failures: 0" in out

    def test_cli_rejects_bad_seeds(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--seeds", "0"]) == 1
