"""CLI tests: the ``campaign`` subcommand and top-level error handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main


def _campaign(*extra):
    return [
        "campaign",
        "--mesh", "cube",
        "--scale", "7",
        "--iterations", "2",
        "--domains", "4",
        "--processes", "2",
        *extra,
    ]


class TestCampaignCommand:
    def test_serial_campaign_prints_summary(self, capsys):
        assert main(_campaign()) == 0
        out = capsys.readouterr().out
        assert "campaign: 2 iterations" in out
        assert "executor serial" in out
        assert "health:" in out
        assert "conserved totals" in out

    def test_faults_imply_threaded_and_recover(self, capsys):
        rc = main(_campaign("--fault-transient", "0.05", "--fault-seed", "3"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "executor threaded" in out

    def test_watchdog_implies_threaded(self, capsys):
        assert main(_campaign("--watchdog", "30")) == 0
        assert "executor threaded" in capsys.readouterr().out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "ckpts")
        assert main(_campaign(
            "--iterations", "4",
            "--checkpoint-dir", ck, "--checkpoint-every", "2",
        )) == 0
        capsys.readouterr()
        assert main(_campaign(
            "--iterations", "2", "--checkpoint-dir", ck, "--resume",
        )) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out and "iteration 4" in out
        # the resumed run kept checkpointing at the inherited interval
        assert (tmp_path / "ckpts" / "ckpt_00000006.json").exists()

    def test_resume_without_dir_is_oneline_error(self, capsys):
        assert main(_campaign("--resume")) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "--checkpoint-dir" in err
        assert len(err.strip().splitlines()) == 1

    def test_resume_empty_dir_is_oneline_error(self, tmp_path, capsys):
        rc = main(_campaign(
            "--resume", "--checkpoint-dir", str(tmp_path / "empty"),
        ))
        assert rc == 1
        assert "no checkpoint found" in capsys.readouterr().err

    def test_bad_iterations_is_oneline_error(self, capsys):
        assert main(_campaign("--iterations", "0")) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "--iterations" in err


class TestTopLevelErrorHandling:
    def test_debug_reraises(self, capsys):
        with pytest.raises(ValueError, match="--iterations"):
            main(["--debug", *_campaign("--iterations", "0")])

    def test_mesh_output_error_is_oneline(self, tmp_path, capsys):
        rc = main([
            "mesh", "cube", "--scale", "7",
            "--output", str(tmp_path / "no" / "such" / "dir" / "m.npz"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")

    def test_unknown_scenario_option_is_oneline_error(self, capsys):
        # No mesh builder takes a min_depth, so no stage config has one.
        rc = main([
            "pipeline", "run", "--scenario", "characteristics",
            "--set", "scale=6", "--set", "min_depth=3", "--through", "mesh",
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "repro: error: unknown scenario option 'min_depth'"
        )

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
