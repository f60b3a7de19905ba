"""Tests for the paper-scale tier.

Two surfaces: the process pool parallel recursive bisection forks
(its workers inherit the graph instead of receiving it, and its size
follows the one worker-count rule), and the one graph storage format
(int64 indices, float64 weights) whatever the input dtypes.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

import repro.graph.partition as partition_mod
from repro.graph import CSRGraph, graph_from_edges
from repro.graph.coarsen import coarsen_once
from repro.graph.metrics import edge_cut
from repro.graph.partition import partition_graph, recursive_bisection
from repro.mesh.dual import mesh_to_dual_graph
from repro.mesh.generators import uniform_mesh
from repro.util import forkpool


@pytest.fixture(scope="module")
def dual_graph():
    """Dual graph of a 256-cell uniform mesh."""
    return mesh_to_dual_graph(uniform_mesh(depth=4))


def narrow_arrays(seed: int = 0, n: int = 120):
    """``(xadj, adjncy, vwgt, adjwgt)`` of a connected random graph in
    narrow dtypes: int32 adjncy, float32 weights."""
    rng = np.random.default_rng(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(2 * n):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(int(u), int(v)), max(int(u), int(v))))
    src, dst = np.array(sorted(edges)).T
    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=xadj[1:])
    adjncy = np.empty(xadj[-1], dtype=np.int32)
    adjwgt = np.empty(xadj[-1], dtype=np.float32)
    pos = xadj[:-1].copy()
    w = rng.integers(1, 8, len(src)).astype(np.float32)
    for (u, v), wv in zip(zip(src, dst), w):
        adjncy[pos[u]] = v
        adjwgt[pos[u]] = wv
        pos[u] += 1
        adjncy[pos[v]] = u
        adjwgt[pos[v]] = wv
        pos[v] += 1
    vwgt = rng.integers(1, 5, n).astype(np.float32)
    return xadj, adjncy, vwgt, adjwgt


def counting_fork_pool(started: list[int]):
    """The one pool constructor, :func:`repro.util.forkpool.fork_pool`,
    wrapped to append to ``started`` the worker count of every
    bisection-tree pool it builds.  A tree pool is told from a
    scheduler round pool by what is submitted to it: tree nodes,
    through ``_tree_node``.  It is counted at its first submit, which
    is when its workers fork."""
    real = forkpool.fork_pool

    def spy(workers, *inherited):
        pool = real(workers, *inherited)
        submit = pool.submit
        counted = False

        def counting_submit(fn, *args):
            nonlocal counted
            if fn is partition_mod._tree_node and not counted:
                counted = True
                started.append(workers)
            return submit(fn, *args)

        pool.submit = counting_submit
        return pool

    return spy


def _partition_as_daemon(g, conn):
    """Daemonic-child body: the default partition, counting the
    process pools it starts."""
    started: list[int] = []
    forkpool.fork_pool = counting_fork_pool(started)
    assert multiprocessing.current_process().daemon
    conn.send((partition_graph(g, 8, seed=3).part, len(started)))


# ----------------------------------------------------------------------
# Parallel recursive bisection on the forked pool
# ----------------------------------------------------------------------
class TestParallelBisection:
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_pool_never_pickles_the_graph(
        self, dual_graph, monkeypatch, n_jobs
    ):
        # Workers inherit the root graph at fork: a task carries a
        # vertex subset and a hierarchy, never a CSRGraph.
        want = partition_graph(dual_graph, 8, seed=3, n_jobs=1).part
        pools: list[int] = []

        def refuse(self, *args):
            raise AssertionError("a CSRGraph was pickled")

        monkeypatch.setattr(CSRGraph, "__reduce__", refuse)
        monkeypatch.setattr(CSRGraph, "__reduce_ex__", refuse)
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        monkeypatch.setattr(forkpool, "fork_pool", counting_fork_pool(pools))
        got = partition_graph(dual_graph, 8, seed=3, n_jobs=n_jobs).part
        assert pools == [n_jobs]
        np.testing.assert_array_equal(got, want)

    def test_pooled_calls_from_concurrent_threads(
        self, dual_graph, monkeypatch
    ):
        # A caller may partition from threads of its own, so pools
        # can fork from a multithreaded parent.  Three threads start a
        # pooled 8-part partition at once; none may hang, and each
        # gets the serial labels.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        want = partition_graph(dual_graph, 8, seed=3, n_jobs=1).part
        start = threading.Barrier(3)
        results: dict[int, np.ndarray] = {}

        def run(i: int) -> None:
            start.wait(timeout=30)
            results[i] = partition_graph(
                dual_graph, 8, seed=3, n_jobs=2
            ).part

        threads = [
            threading.Thread(target=run, args=(i,), daemon=True)
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "a pooled call hung"
        assert sorted(results) == [0, 1, 2]
        for got in results.values():
            np.testing.assert_array_equal(got, want)

    def test_parallel_labels_scheduling_invariant(self, dual_graph):
        runs = [
            recursive_bisection(
                dual_graph,
                6,
                np.random.default_rng(7),
                n_jobs=n_jobs,
                executor=executor,
            )
            for n_jobs, executor in ((2, "process"), (3, "process"))
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0], other)

    def test_daemonic_process_runs_the_tree_inline(
        self, dual_graph, monkeypatch
    ):
        # A serve job child is daemonic and may not start a pool: the
        # default (auto executor, one worker per CPU) on a graph past
        # the pool floor runs inline there, with the in-process labels.
        # The forked child inherits the lowered floor.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        g = dual_graph
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(
            target=_partition_as_daemon, args=(g, send), daemon=True
        )
        child.start()
        labels, pools = recv.recv()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert pools == 0
        want = partition_graph(g, 8, seed=3, n_jobs=1).part
        np.testing.assert_array_equal(labels, want)

    def test_host_without_fork_runs_the_tree_inline(
        self, dual_graph, monkeypatch
    ):
        # Workers get the graph only by inheriting it, so a host whose
        # start methods lack "fork" must not start a pool at all.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(forkpool, "fork_pool", None)
        got = partition_graph(dual_graph, 8, seed=3, n_jobs=2).part
        want = partition_graph(dual_graph, 8, seed=3, n_jobs=1).part
        np.testing.assert_array_equal(got, want)

    def test_parallel_cut_parity_with_serial(self, dual_graph):
        serial = recursive_bisection(
            dual_graph, 8, np.random.default_rng(3), n_jobs=1
        )
        par = recursive_bisection(
            dual_graph, 8, np.random.default_rng(3), n_jobs=2,
            executor="process",
        )
        # One seeding rule (a spawned generator per tree node) on every
        # path: the labels, and so the cut, are the serial ones.
        np.testing.assert_array_equal(par, serial)
        assert edge_cut(dual_graph, par) == edge_cut(dual_graph, serial)

    def test_direct_partition_follows_the_worker_count_rule(
        self, dual_graph, monkeypatch
    ):
        # A direct call with no n_jobs resolves the count as the
        # pipeline does: a pin (the CLI's --jobs) or REPRO_N_JOBS=1
        # keeps the tree inline, REPRO_N_JOBS=2 starts one pool.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        started: list[int] = []
        monkeypatch.setattr(forkpool, "fork_pool", counting_fork_pool(started))
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        with forkpool.pinned_n_jobs(1):
            pinned = partition_graph(dual_graph, 8, seed=3).part
        assert started == []
        monkeypatch.setenv("REPRO_N_JOBS", "1")
        env_one = partition_graph(dual_graph, 8, seed=3).part
        assert started == []
        monkeypatch.setenv("REPRO_N_JOBS", "2")
        env_two = partition_graph(dual_graph, 8, seed=3).part
        assert started == [2]
        assert multiprocessing.active_children() == []
        np.testing.assert_array_equal(env_one, pinned)
        np.testing.assert_array_equal(env_two, pinned)


# ----------------------------------------------------------------------
# One storage format
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build", ["CSRGraph", "graph_from_edges", "subgraph", "contract"]
)
def test_narrow_inputs_are_widened(build):
    xadj, adjncy, vwgt, adjwgt = narrow_arrays(6)
    g = CSRGraph(xadj, adjncy, vwgt=vwgt, adjwgt=adjwgt)
    np.testing.assert_array_equal(g.adjncy, adjncy)
    np.testing.assert_array_equal(g.vwgt[:, 0], vwgt)
    np.testing.assert_array_equal(g.adjwgt, adjwgt)
    if build == "graph_from_edges":
        src = g.edge_sources()
        once = src < g.adjncy
        edges = np.stack([src[once], g.adjncy[once]], axis=1)
        g = graph_from_edges(
            g.num_vertices,
            edges.astype(np.int32),
            vwgt=vwgt,
            ewgt=adjwgt[once],
        )
    elif build == "subgraph":
        g, mapping = g.subgraph(np.arange(0, len(vwgt), 2, dtype=np.int32))
        assert mapping.dtype == np.int64
    elif build == "contract":
        g = coarsen_once(g, np.random.default_rng(0)).graph
    assert g.xadj.dtype == g.adjncy.dtype == np.int64
    assert g.vwgt.dtype == g.adjwgt.dtype == np.float64
