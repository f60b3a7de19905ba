"""Micro-benchmarks of the library's computational kernels.

Classic pytest-benchmark timing (multiple rounds) of: mesh generation,
dual-graph construction, SC_OC/MC_TL partitioning, task-graph
generation, FLUSIM simulation, and the solver's flux kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flusim import ClusterConfig, simulate
from repro.mesh import cube_mesh, mesh_to_dual_graph
from repro.partitioning import make_decomposition
from repro.solver import LTSState, blast_wave
from repro.solver.lts import accumulate_face_fluxes
from repro.taskgraph import generate_task_graph
from repro.temporal import levels_from_depth, operating_costs


@pytest.fixture(scope="module")
def case():
    mesh = cube_mesh(max_depth=9)
    tau = levels_from_depth(mesh, num_levels=4)
    return mesh, tau


@pytest.fixture(scope="module")
def decomp(case):
    mesh, tau = case
    return make_decomposition(mesh, tau, 16, 4, strategy="MC_TL", seed=0)


@pytest.fixture(scope="module")
def dag(case, decomp):
    mesh, tau = case
    return generate_task_graph(mesh, tau, decomp)


def test_bench_mesh_generation(benchmark):
    mesh = benchmark(lambda: cube_mesh(max_depth=8))
    assert mesh.num_cells > 1000


def test_bench_dual_graph(benchmark, case):
    mesh, tau = case
    g = benchmark(lambda: mesh_to_dual_graph(mesh))
    assert g.num_vertices == mesh.num_cells


def test_bench_partition_sc_oc(benchmark, case):
    mesh, tau = case
    from repro.partitioning import sc_oc_partition

    part = benchmark.pedantic(
        sc_oc_partition, args=(mesh, tau, 16), kwargs={"seed": 0},
        rounds=2, iterations=1,
    )
    assert len(np.unique(part)) == 16


def test_bench_partition_mc_tl(benchmark, case):
    mesh, tau = case
    from repro.partitioning import mc_tl_partition

    part = benchmark.pedantic(
        mc_tl_partition, args=(mesh, tau, 16), kwargs={"seed": 0},
        rounds=2, iterations=1,
    )
    assert len(np.unique(part)) == 16


def test_bench_taskgraph_generation(benchmark, case, decomp):
    mesh, tau = case
    dag = benchmark(lambda: generate_task_graph(mesh, tau, decomp))
    assert dag.num_tasks > 0


def test_bench_flusim_simulate(benchmark, dag):
    trace = benchmark(lambda: simulate(dag, ClusterConfig(4, 8)))
    assert trace.makespan > 0


def test_bench_flux_kernel(benchmark, case):
    mesh, tau = case
    state = LTSState(blast_wave(mesh))
    faces = mesh.interior_faces()

    def kernel():
        accumulate_face_fluxes(mesh, state, faces, 1e-6)
        state.acc[:] = 0.0

    benchmark(kernel)


def test_bench_critical_path(benchmark, dag):
    def forget():
        # Computed once per DAG and kept: drop it so every round times
        # the level sweeps, not the lookup (the CSR stays warm).
        dag._levels = dag._bottom = None

    cp, _ = benchmark.pedantic(dag.critical_path, setup=forget, rounds=20)
    assert cp > 0


def test_bench_operating_costs(benchmark, case):
    _, tau = case
    cost = benchmark(lambda: operating_costs(tau))
    assert cost.min() >= 1.0
