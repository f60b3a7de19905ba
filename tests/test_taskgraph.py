"""Tests for Algorithm 1 task generation and DAG utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partitioning import DomainDecomposition, make_decomposition
from repro.taskgraph import (
    Locality,
    ObjectType,
    TaskDAG,
    generate_task_graph,
    work_by_process_subiteration,
)
from repro.taskgraph.generation import classify_objects
from repro.taskgraph.task import TaskArrays
from repro.temporal import num_subiterations, operating_costs
from tests.oracles import dag_scalar
from tests.oracles.invariants import validate_dag


class TestClassifyObjects:
    def test_external_faces(self, small_cube_mesh, small_cube_tau, cube_decomp_sc):
        info = classify_objects(
            small_cube_mesh, small_cube_tau, cube_decomp_sc
        )
        m = small_cube_mesh
        interior = m.interior_faces()
        a = m.face_cells[interior, 0]
        b = m.face_cells[interior, 1]
        crossing = (
            cube_decomp_sc.domain[a] != cube_decomp_sc.domain[b]
        )
        np.testing.assert_array_equal(
            info["face_locality"][interior] == 1, crossing
        )

    def test_boundary_faces_internal(self, small_cube_mesh, small_cube_tau, cube_decomp_sc):
        info = classify_objects(
            small_cube_mesh, small_cube_tau, cube_decomp_sc
        )
        bnd = small_cube_mesh.boundary_faces()
        assert np.all(info["face_locality"][bnd] == 0)

    def test_external_cells_touch_other_domains(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc
    ):
        info = classify_objects(
            small_cube_mesh, small_cube_tau, cube_decomp_sc
        )
        xadj, adjncy, _ = small_cube_mesh.cell_adjacency()
        dom = cube_decomp_sc.domain
        for c in range(small_cube_mesh.num_cells):
            nbrs = adjncy[xadj[c] : xadj[c + 1]]
            has_foreign = np.any(dom[nbrs] != dom[c])
            assert (info["cell_locality"][c] == 1) == has_foreign

    def test_face_owner_is_adjacent_domain(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc
    ):
        info = classify_objects(
            small_cube_mesh, small_cube_tau, cube_decomp_sc
        )
        m = small_cube_mesh
        dom = cube_decomp_sc.domain
        a = m.face_cells[:, 0]
        b = m.face_cells[:, 1]
        owner = info["face_domain"]
        ok = owner == dom[a]
        interior = b >= 0
        ok[interior] |= owner[interior] == dom[b[interior]]
        assert np.all(ok)


class TestGeneration:
    def test_dag_is_acyclic(self, cube_dag_sc, cube_dag_mc):
        validate_dag(cube_dag_sc)
        validate_dag(cube_dag_mc)

    def test_edges_point_forward(self, cube_dag_sc):
        """Generation order must be a topological order."""
        e = cube_dag_sc.edges
        assert np.all(e[:, 0] < e[:, 1])

    def test_every_object_processed_right_number_of_times(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc, cube_dag_sc
    ):
        """Σ cell-task objects = Σ_cells 2^(τmax−τ) over the iteration."""
        t = cube_dag_sc.tasks
        is_cell = t.obj_type == int(ObjectType.CELL)
        total_cell_updates = t.num_objects[is_cell].sum()
        assert total_cell_updates == operating_costs(small_cube_tau).sum()

    def test_face_work_matches_face_levels(
        self, small_cube_mesh, small_cube_tau, cube_dag_sc
    ):
        from repro.temporal import face_levels

        fl = face_levels(small_cube_mesh, small_cube_tau)
        t = cube_dag_sc.tasks
        is_face = t.obj_type == int(ObjectType.FACE)
        assert t.num_objects[is_face].sum() == operating_costs(fl).sum()

    def test_total_work_invariant_across_strategies(
        self, cube_dag_sc, cube_dag_mc
    ):
        """Paper §VI: 'the total amount of work is independent of the
        partitioning strategy'."""
        assert cube_dag_sc.total_work() == pytest.approx(
            cube_dag_mc.total_work()
        )

    def test_mc_tl_has_more_tasks(self, cube_dag_sc, cube_dag_mc):
        """MC_TL expresses the mesh at finer granularity (paper §VI)."""
        assert cube_dag_mc.num_tasks > cube_dag_sc.num_tasks

    def test_subiteration_range(self, cube_dag_sc, small_cube_tau):
        nsub = num_subiterations(int(small_cube_tau.max()))
        t = cube_dag_sc.tasks
        assert t.subiteration.min() == 0
        assert t.subiteration.max() == nsub - 1

    def test_first_subiteration_has_all_phases(self, cube_dag_sc, small_cube_tau):
        t = cube_dag_sc.tasks
        sel = t.subiteration == 0
        assert set(np.unique(t.phase_tau[sel])) == set(
            range(int(small_cube_tau.max()) + 1)
        )

    def test_tasks_assigned_to_owning_process(
        self, cube_dag_sc, cube_decomp_sc
    ):
        t = cube_dag_sc.tasks
        np.testing.assert_array_equal(
            t.process, cube_decomp_sc.domain_process[t.domain]
        )

    def test_no_empty_tasks(self, cube_dag_sc):
        assert np.all(cube_dag_sc.tasks.num_objects > 0)

    def test_activation_counts_per_level(self, cube_dag_sc, small_cube_tau):
        """A (domain, level) cell group appears exactly 2^(τmax−τ)
        times."""
        t = cube_dag_sc.tasks
        tau_max = int(small_cube_tau.max())
        is_cell = t.obj_type == int(ObjectType.CELL)
        for tph in range(tau_max + 1):
            sel = is_cell & (t.phase_tau == tph)
            # Each (domain, locality) group recurs once per activation.
            key = t.domain[sel] * 2 + t.locality[sel]
            _, counts = np.unique(key, return_counts=True)
            assert np.all(counts == 1 << (tau_max - tph))

    def test_cost_units(self, small_cube_mesh, small_cube_tau, cube_decomp_sc):
        dag = generate_task_graph(
            small_cube_mesh,
            small_cube_tau,
            cube_decomp_sc,
            cell_unit_cost=2.0,
            face_unit_cost=3.0,
        )
        t = dag.tasks
        is_cell = t.obj_type == int(ObjectType.CELL)
        np.testing.assert_allclose(
            t.cost[is_cell], 2.0 * t.num_objects[is_cell]
        )
        np.testing.assert_allclose(
            t.cost[~is_cell], 3.0 * t.num_objects[~is_cell]
        )

    def test_faces_precede_cells_within_phase(self, cube_dag_sc):
        """Within each (subiteration, phase), all FACE task ids precede
        all CELL task ids (Algorithm 1's object-type loop)."""
        t = cube_dag_sc.tasks
        for s in np.unique(t.subiteration):
            for tph in np.unique(t.phase_tau[t.subiteration == s]):
                sel = (t.subiteration == s) & (t.phase_tau == tph)
                ids = np.flatnonzero(sel)
                types = t.obj_type[ids]
                # ids are sorted by construction
                first_cell = np.argmax(types == int(ObjectType.CELL))
                if np.any(types == int(ObjectType.CELL)):
                    assert np.all(
                        types[first_cell:] == int(ObjectType.CELL)
                    )


class TestMultiIteration:
    def test_task_count_scales(self, small_cube_mesh, small_cube_tau, cube_decomp_sc, cube_dag_sc):
        dag3 = generate_task_graph(
            small_cube_mesh, small_cube_tau, cube_decomp_sc, iterations=3
        )
        assert dag3.num_tasks == 3 * cube_dag_sc.num_tasks
        assert dag3.total_work() == pytest.approx(
            3 * cube_dag_sc.total_work()
        )
        validate_dag(dag3)

    def test_cross_iteration_dependencies(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc, cube_dag_sc
    ):
        """Iterations are chained by data dependencies, not barriers:
        some edge crosses the iteration boundary, and no single task
        depends on *every* task of the previous iteration."""
        dag2 = generate_task_graph(
            small_cube_mesh, small_cube_tau, cube_decomp_sc, iterations=2
        )
        n1 = cube_dag_sc.num_tasks
        e = dag2.edges
        crossing = (e[:, 0] < n1) & (e[:, 1] >= n1)
        assert crossing.sum() > 0
        # No barrier: the second iteration's first task has far fewer
        # predecessors than the first iteration has tasks.
        px, pa = dag_scalar.predecessors_csr(dag2)
        first = n1
        assert px[first + 1] - px[first] < n1 / 2

    def test_global_subiteration_indices(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc
    ):
        dag2 = generate_task_graph(
            small_cube_mesh, small_cube_tau, cube_decomp_sc, iterations=2
        )
        nsub = num_subiterations(int(small_cube_tau.max()))
        assert dag2.tasks.subiteration.max() == 2 * nsub - 1

    def test_pipelining_reduces_amortized_makespan(
        self, small_cube_mesh, small_cube_tau, cube_decomp_sc, cube_dag_sc
    ):
        from repro.flusim import ClusterConfig, simulate

        cluster = ClusterConfig(4, 4)
        m1 = simulate(cube_dag_sc, cluster).makespan
        dag3 = generate_task_graph(
            small_cube_mesh, small_cube_tau, cube_decomp_sc, iterations=3
        )
        m3 = simulate(dag3, cluster).makespan
        assert m3 / 3 <= m1 * 1.001

    def test_invalid_iterations(self, small_cube_mesh, small_cube_tau, cube_decomp_sc):
        with pytest.raises(ValueError):
            generate_task_graph(
                small_cube_mesh, small_cube_tau, cube_decomp_sc, iterations=0
            )


class TestDependencies:
    def test_cell_task_depends_on_same_phase_face_task(
        self, cube_dag_sc
    ):
        """Fig. 8: within a phase, a domain's cell task depends on the
        face task(s) covering its faces — at minimum its own domain's."""
        t = cube_dag_sc.tasks
        px, pa = dag_scalar.predecessors_csr(cube_dag_sc)
        # Pick a cell task in subiteration 0 with internal locality.
        cand = np.flatnonzero(
            (t.obj_type == int(ObjectType.CELL))
            & (t.subiteration == 0)
        )
        assert len(cand)
        for tid in cand[:10]:
            preds = pa[px[tid] : px[tid + 1]]
            face_preds = preds[
                t.obj_type[preds] == int(ObjectType.FACE)
            ]
            assert len(face_preds) > 0

    def test_consecutive_updates_chained(self, cube_dag_sc, small_cube_tau):
        """A cell group's successive tasks are ordered by a dependency
        path (RAW on own state)."""
        t = cube_dag_sc.tasks
        px, pa = dag_scalar.predecessors_csr(cube_dag_sc)
        # Find any τ=0 cell group (domain, locality) with ≥2 tasks;
        # τ=0 groups activate every subiteration.
        cand = np.flatnonzero(
            (t.obj_type == int(ObjectType.CELL)) & (t.phase_tau == 0)
        )
        assert len(cand) >= 2
        key = t.domain[cand] * 2 + t.locality[cand]
        values, counts = np.unique(key, return_counts=True)
        pick = values[np.argmax(counts)]
        sel = cand[key == pick]
        assert len(sel) >= 2
        for prev, nxt in zip(sel[:-1], sel[1:]):
            preds = set(pa[px[nxt] : px[nxt + 1]].tolist())
            assert int(prev) in preds

    def test_cross_domain_dependencies_exist(self, cube_dag_sc):
        """External face tasks must read neighbour domains' cells."""
        e = cube_dag_sc.edges
        t = cube_dag_sc.tasks
        cross = t.domain[e[:, 0]] != t.domain[e[:, 1]]
        assert cross.sum() > 0


class TestDAGUtilities:
    def test_topological_order_valid(self, cube_dag_mc):
        order = cube_dag_mc.topological_order()
        pos = np.empty(len(order), dtype=np.int64)
        pos[order] = np.arange(len(order))
        e = cube_dag_mc.edges
        assert np.all(pos[e[:, 0]] < pos[e[:, 1]])

    def test_cycle_detection(self):
        tasks = TaskArrays(
            subiteration=np.zeros(2, dtype=np.int32),
            phase_tau=np.zeros(2, dtype=np.int32),
            obj_type=np.zeros(2, dtype=np.int8),
            locality=np.zeros(2, dtype=np.int8),
            domain=np.zeros(2, dtype=np.int32),
            process=np.zeros(2, dtype=np.int32),
            num_objects=np.ones(2, dtype=np.int64),
            cost=np.ones(2),
        )
        dag = TaskDAG(tasks=tasks, edges=np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="cycle"):
            dag.topological_order()

    def test_critical_path_bounds(self, cube_dag_sc):
        cp, bl = cube_dag_sc.critical_path()
        cost = cube_dag_sc.tasks.cost
        assert cp >= cost.max()
        assert cp <= cost.sum()
        assert np.all(bl >= cost)
        assert bl.max() == pytest.approx(cp)

    def test_width_profile_sums_to_tasks(self, cube_dag_sc):
        width = np.diff(cube_dag_sc._level_order()[1])
        assert width.sum() == cube_dag_sc.num_tasks

    def test_self_dependency_rejected(self):
        tasks = TaskArrays(
            subiteration=np.zeros(1, dtype=np.int32),
            phase_tau=np.zeros(1, dtype=np.int32),
            obj_type=np.zeros(1, dtype=np.int8),
            locality=np.zeros(1, dtype=np.int8),
            domain=np.zeros(1, dtype=np.int32),
            process=np.zeros(1, dtype=np.int32),
            num_objects=np.ones(1, dtype=np.int64),
            cost=np.ones(1),
        )
        dag = TaskDAG(tasks=tasks, edges=np.array([[0, 0]]))
        with pytest.raises(ValueError, match="self"):
            validate_dag(dag)


class TestAnalysis:
    def test_work_matrices_sum_to_total(self, cube_dag_sc):
        w2 = work_by_process_subiteration(cube_dag_sc, 4)
        assert w2.sum() == pytest.approx(cube_dag_sc.total_work())

    def test_task_count_by_subiteration(self, cube_dag_sc):
        counts = np.bincount(cube_dag_sc.tasks.subiteration)
        assert counts.sum() == cube_dag_sc.num_tasks
        # Subiteration 0 activates every level → the most tasks.
        assert counts[0] == counts.max()
