"""Tests for visualization helpers and the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.flusim import ClusterConfig, simulate
from repro.viz import render_process_gantt, render_stacked_bars


class TestStackedBars:
    def test_renders_rows(self):
        m = np.array([[1.0, 2.0], [3.0, 0.0]])
        out = render_stacked_bars(m, width=20)
        lines = out.splitlines()
        assert len(lines) == 2
        assert all("|" in l for l in lines)

    def test_longest_row_fills_width(self):
        m = np.array([[1.0], [4.0]])
        out = render_stacked_bars(m, width=20)
        bar = out.splitlines()[1].split("|")[1]
        assert bar.count("0") == 20

    def test_zero_matrix(self):
        out = render_stacked_bars(np.zeros((2, 2)), width=10)
        assert "0" not in out.split("|")[1]


class TestGantt:
    def test_process_gantt_dimensions(self, cube_dag_mc):
        trace = simulate(cube_dag_mc, ClusterConfig(4, 2))
        out = render_process_gantt(trace, cube_dag_mc, width=50)
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l.split("|")[1]) == 50 for l in lines)

    def test_gantt_shows_subiteration_digits(self, cube_dag_mc):
        trace = simulate(cube_dag_mc, ClusterConfig(4, 2))
        out = render_process_gantt(trace, cube_dag_mc, width=60)
        body = "".join(l.split("|")[1] for l in out.splitlines())
        # Subiteration 0 tasks must appear somewhere.
        assert "0" in body

    def test_idle_shown_as_dots(self, cube_dag_sc):
        trace = simulate(cube_dag_sc, ClusterConfig(4, 2))
        out = render_process_gantt(trace, cube_dag_sc, width=80)
        assert "." in out  # SC_OC schedules always have idle gaps


class TestCLI:
    def test_mesh_command(self, capsys, tmp_path):
        out_file = tmp_path / "m.npz"
        rc = main(
            ["mesh", "uniform", "--scale", "3", "--output", str(out_file)]
        )
        assert rc == 0
        assert out_file.exists()
        captured = capsys.readouterr().out
        assert "UNIFORM" in captured

    def test_table1_command(self, capsys):
        rc = main(["table1", "--scale", "8"])
        assert rc == 0
        assert "CYLINDER" in capsys.readouterr().out

    def test_experiment_fig08(self, capsys):
        rc = main(["experiment", "fig08"])
        assert rc == 0
        assert "MC_TL" in capsys.readouterr().out

    def test_experiment_fig12_small(self, capsys):
        rc = main(["experiment", "fig12", "--scale", "7"])
        assert rc == 0
        assert "NOZZLE" in capsys.readouterr().out

    def test_gantt_command(self, capsys):
        rc = main(
            [
                "gantt",
                "--mesh",
                "cube",
                "--domains",
                "8",
                "--processes",
                "4",
                "--cores",
                "4",
                "--scale",
                "8",
                "--width",
                "40",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SC_OC" in out and "MC_TL" in out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestLevelMap:
    def test_cylinder_ring_structure(self):
        """The map shows the paper's Fig. 3 pattern: fine levels at
        the centre, coarse at the edges."""
        from repro.mesh import cylinder_mesh
        from repro.temporal import levels_from_depth
        from repro.viz import render_level_map

        mesh = cylinder_mesh(max_depth=8)
        tau = levels_from_depth(mesh, num_levels=4)
        out = render_level_map(mesh, tau, width=40, height=20)
        lines = out.splitlines()
        assert len(lines) == 20
        # Corners are the coarsest level; the centre row contains finer.
        assert lines[0][0] == "3"
        assert "0" in lines[10] or "1" in lines[10]

    def test_length_mismatch(self, flat_mesh):
        import numpy as np
        import pytest

        from repro.viz import render_level_map

        with pytest.raises(ValueError):
            render_level_map(flat_mesh, np.zeros(3))

    def test_cli_map_flag(self, capsys):
        from repro.cli import main

        rc = main(["mesh", "cube", "--scale", "7", "--map"])
        assert rc == 0
        assert "temporal-level map" in capsys.readouterr().out
