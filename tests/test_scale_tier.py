"""Tests for the paper-scale tier.

Two surfaces: the process pool parallel recursive bisection forks
(its workers inherit the graph instead of receiving it), and the
int32/float32 storage narrowing with dtype provenance.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

import repro.graph.partition as partition_mod
from repro.graph import CSRGraph
from repro.graph.metrics import edge_cut
from repro.graph.partition import partition_graph, recursive_bisection
from repro.mesh.dual import mesh_to_dual_graph
from repro.mesh.generators import uniform_mesh


@pytest.fixture(scope="module")
def dual_graph():
    """Dual graph of a 256-cell uniform mesh, auto-narrowed indices."""
    return mesh_to_dual_graph(uniform_mesh(depth=4), index_dtype="auto")


def narrow_graph(seed: int = 0, n: int = 120) -> CSRGraph:
    """A connected random graph stored narrow: int32 adjncy, float32
    weights (values exactly representable in float32)."""
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
    return CSRGraph(xadj, adjncy, vwgt=vwgt, adjwgt=adjwgt)


def _partition_as_daemon(g, conn):
    """Daemonic-child body: the default partition, counting the
    process pools it starts."""
    started = []

    class CountingPool(partition_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(1)
            super().__init__(*args, **kwargs)

    partition_mod.ProcessPoolExecutor = CountingPool
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
        pools = []

        class CountingPool(partition_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        def refuse(self, *args):
            raise AssertionError("a CSRGraph was pickled")

        monkeypatch.setattr(CSRGraph, "__reduce__", refuse)
        monkeypatch.setattr(CSRGraph, "__reduce_ex__", refuse)
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        monkeypatch.setattr(
            partition_mod, "ProcessPoolExecutor", CountingPool
        )
        got = partition_graph(dual_graph, 8, seed=3, n_jobs=n_jobs).part
        assert pools == [1]
        np.testing.assert_array_equal(got, want)

    def test_pooled_calls_from_concurrent_threads(
        self, dual_graph, monkeypatch
    ):
        # `repro pipeline sweep --jobs N` partitions on DagScheduler
        # threads, so pools fork from a multithreaded parent.  Three
        # threads start a pooled 8-part partition at once; none may
        # hang, and each gets the serial labels.
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
        monkeypatch.setattr(partition_mod, "ProcessPoolExecutor", None)
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


# ----------------------------------------------------------------------
# Dtype narrowing
# ----------------------------------------------------------------------
class TestDtypeNarrowing:
    def test_auto_dual_is_int32_at_small_scale(self, dual_graph):
        assert dual_graph.adjncy.dtype == np.int32

    def test_subgraph_preserves_narrow_storage(self):
        g = narrow_graph(6)
        sub, mapping = g.subgraph(np.arange(0, g.num_vertices, 2))
        assert sub.adjncy.dtype == np.int32
        assert sub.vwgt.dtype == np.float32
        assert sub.adjwgt.dtype == np.float32
        assert mapping.dtype == np.int64

    def test_coarsening_keeps_narrow_indices(self):
        from repro.graph.coarsen import coarsen_once

        g = narrow_graph(12)
        lvl = coarsen_once(g, np.random.default_rng(0))
        # Indices must never silently widen; the *weights* deliberately
        # accumulate in float64 (sums of float32 are not representable
        # in float32 without rounding).
        assert lvl.graph.adjncy.dtype == np.int32
        assert lvl.graph.vwgt.dtype == np.float64
        assert lvl.cmap.max() < g.num_vertices

    def test_partition_round_trip_no_silent_widening(self):
        g = narrow_graph(7)
        res = partition_graph(g, 4, seed=7)
        assert res.part.dtype == np.int32
        assert res.dtypes == {
            "adjncy": "int32",
            "vwgt": "float32",
            "adjwgt": "float32",
            "part": "int32",
        }
        # The input graph's own storage must be untouched.
        assert g.adjncy.dtype == np.int32
        assert g.vwgt.dtype == np.float32

    def test_narrow_and_wide_labels_bit_identical(self):
        g = narrow_graph(8)
        wide = CSRGraph(
            g.xadj.astype(np.int64),
            g.adjncy.astype(np.int64),
            vwgt=np.asarray(g.vwgt, dtype=np.float64),
            adjwgt=np.asarray(g.adjwgt, dtype=np.float64),
        )
        res_n = partition_graph(g, 5, seed=11)
        res_w = partition_graph(wide, 5, seed=11)
        np.testing.assert_array_equal(res_n.part, res_w.part)
        assert res_n.cut == res_w.cut
