"""Coverage top-up for small public APIs not exercised elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh import uniform_mesh
from repro.solver import integrate, quiescent
from repro.taskgraph import TaskView
from repro.taskgraph.analysis import operating_cost_by_process_level
from repro.taskgraph.task import Locality, ObjectType


class TestIntegrateGuards:
    def test_max_steps_guard(self, flat_mesh):
        U = quiescent(flat_mesh)
        with pytest.raises(RuntimeError, match="max_steps"):
            integrate(flat_mesh, U, 1e9, max_steps=2)

    def test_zero_time_noop(self, flat_mesh):
        U = quiescent(flat_mesh)
        out, steps = integrate(flat_mesh, U, 0.0)
        assert steps == 0
        np.testing.assert_array_equal(out, U)


class TestTaskView:
    def test_view_round_trip(self, cube_dag_sc):
        v = cube_dag_sc.tasks.view(0)
        assert isinstance(v, TaskView)
        assert v.index == 0
        assert v.obj_type in (ObjectType.FACE, ObjectType.CELL)
        assert v.locality in (Locality.INTERNAL, Locality.EXTERNAL)
        assert v.stage == 1  # euler graphs are single-stage
        assert v.cost > 0

    def test_view_str(self, cube_dag_sc):
        text = str(cube_dag_sc.tasks.view(0))
        assert "T0[" in text


class TestAnalysisHelpers:
    def test_operating_cost_by_process_level(
        self, small_cube_tau, cube_decomp_sc
    ):
        m = operating_cost_by_process_level(small_cube_tau, cube_decomp_sc)
        assert m.shape == (4, 4)
        from repro.temporal import operating_costs

        assert m.sum() == pytest.approx(
            operating_costs(small_cube_tau).sum()
        )


class TestMeshFactoriesRegistry:
    def test_registry_complete(self):
        from repro.mesh import MESH_FACTORIES

        assert set(MESH_FACTORIES) == {
            "cylinder",
            "cube",
            "pprime_nozzle",
            "uniform",
        }
        m = MESH_FACTORIES["uniform"](max_depth=3)
        assert m.num_cells == 64
