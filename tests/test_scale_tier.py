"""Tests for the paper-scale tier.

Two surfaces: the forked processes parallel recursive bisection runs
on (they inherit the graph instead of receiving it, their number
follows the one worker-count rule, and a failed one leaves no process
behind), and the one graph storage format (int64 indices, float64
weights) whatever the input dtypes.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.graph.partition as partition_mod
from repro.graph import CSRGraph, graph_from_edges
from repro.graph.coarsen import coarsen_once
from repro.graph.metrics import edge_cut
from repro.graph.partition import partition_graph, recursive_bisection
from repro.mesh.dual import mesh_to_dual_graph
from repro.mesh.generators import uniform_mesh
from repro.resilience.errors import PartitionInternalError
from repro.util import forkpool

SRC = Path(__file__).resolve().parents[1] / "src"


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


def counting_forks(started: list[int]):
    """:func:`repro.util.forkpool.fork` wrapped to append to ``started``
    the worker budget of every bisection tree forked from this process:
    a tree's root runs in a child whose target is ``_subtree``.  A fork
    made inside that child is counted in the child's copy of
    ``started``, so this process sees one entry per tree."""
    real = forkpool.fork

    def spy(fn, *args, **kw):
        if fn is partition_mod._subtree:
            started.append(args[-1])
        return real(fn, *args, **kw)

    return spy


def _partition_as_daemon(g, conn):
    """Daemonic-child body: the default partition, counting the
    bisection trees it forks."""
    started: list[int] = []
    forkpool.fork = counting_forks(started)
    assert multiprocessing.current_process().daemon
    conn.send((partition_graph(g, 8, seed=3).part, len(started)))


# ----------------------------------------------------------------------
# Parallel recursive bisection on forked processes
# ----------------------------------------------------------------------
class TestParallelBisection:
    @pytest.mark.parametrize("n_jobs", [1, 2, 3, 4])
    def test_pool_never_pickles_the_graph(
        self, dual_graph, monkeypatch, n_jobs
    ):
        # Workers inherit the root graph at fork, and a subtree sends
        # back labels only: nothing pickles a CSRGraph.  One tree is
        # forked for any count above one, with that budget, and the
        # labels are the inline ones.
        want = partition_graph(dual_graph, 8, seed=3, n_jobs=1).part
        pools: list[int] = []

        def refuse(self, *args):
            raise AssertionError("a CSRGraph was pickled")

        monkeypatch.setattr(CSRGraph, "__reduce__", refuse)
        monkeypatch.setattr(CSRGraph, "__reduce_ex__", refuse)
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        monkeypatch.setattr(forkpool, "fork", counting_forks(pools))
        got = partition_graph(dual_graph, 8, seed=3, n_jobs=n_jobs).part
        assert pools == ([n_jobs] if n_jobs > 1 else [])
        np.testing.assert_array_equal(got, want)

    def test_pooled_calls_from_concurrent_threads(
        self, dual_graph, monkeypatch
    ):
        # A caller may partition from threads of its own, so trees
        # can fork from a multithreaded parent.  Three threads start a
        # forked 8-part partition at once; none may hang, and each
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
            for n_jobs, executor in (
                (1, None),
                (2, "process"),
                (3, "process"),
                (4, "process"),
            )
        ]
        for other in runs[1:]:
            np.testing.assert_array_equal(runs[0], other)

    def test_daemonic_process_runs_the_tree_inline(
        self, dual_graph, monkeypatch
    ):
        # A serve job child is daemonic and may not fork: the default
        # (auto executor, one worker per CPU) on a graph past the fork
        # floor runs inline there, with the in-process labels.
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
        # start methods lack "fork" must not fork at all.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(forkpool, "fork", None)
        got = partition_graph(dual_graph, 8, seed=3, n_jobs=2).part
        want = partition_graph(dual_graph, 8, seed=3, n_jobs=1).part
        np.testing.assert_array_equal(got, want)

    def test_host_without_parent_death_signal_runs_the_tree_inline(
        self, dual_graph, monkeypatch
    ):
        # A forked node must end with the process that forked it; where
        # the host cannot promise that, the tree does not fork.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        monkeypatch.setattr(forkpool, "_parent_death", lambda: None)
        monkeypatch.setattr(forkpool, "fork", None)
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
        # keeps the tree inline, REPRO_N_JOBS=2 forks one tree.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        started: list[int] = []
        monkeypatch.setattr(forkpool, "fork", counting_forks(started))
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


    @pytest.mark.parametrize("how", ["raise", "sigkill"])
    def test_failed_subtree_raises_and_leaves_no_process(
        self, dual_graph, monkeypatch, tmp_path, how
    ):
        # The root's second subtree runs in a child forked by the
        # root's process, which inherits this patch; there it raises,
        # or kills itself.  Every process that bisected a node appends
        # its pid to a file, and none of them may outlive the call.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)
        real = partition_mod._tree_node
        log = tmp_path / "pids"

        def failing_node(g, vertices, first, k, depth, *rest):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            if depth == 1 and first > 0:
                if how == "raise":
                    raise RuntimeError("injected subtree failure")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(g, vertices, first, k, depth, *rest)

        monkeypatch.setattr(partition_mod, "_tree_node", failing_node)
        want = "injected subtree failure" if how == "raise" else "code -9"
        with pytest.raises(PartitionInternalError, match=want):
            partition_graph(dual_graph, 8, seed=3, n_jobs=2)
        pids = {int(p) for p in log.read_text().split()}
        assert os.getpid() not in pids and len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.skipif(
        not (os.path.isdir("/proc/self/fd") and forkpool.can_fork_tree(2)),
        reason="needs /proc/self/fd and a parent-death signal",
    )
    def test_refused_fork_raises_and_closes_its_pipe(
        self, dual_graph, monkeypatch
    ):
        # A host that refuses a fork (EAGAIN under a pid limit) fails
        # the tree like a dead child does, and the pipe made for the
        # child is closed.
        monkeypatch.setattr(partition_mod, "_POOL_MIN_VERTICES", 0)

        def refuse():
            raise BlockingIOError(errno.EAGAIN, "fork refused")

        open_fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", refuse)
        with pytest.raises(PartitionInternalError, match="fork refused"):
            partition_graph(dual_graph, 8, seed=3, n_jobs=2)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    @pytest.mark.skipif(
        not (hasattr(os, "pidfd_open") and forkpool.can_fork_tree(2)),
        reason="needs pidfd_open and a parent-death signal",
    )
    def test_killed_caller_leaves_no_tree_process(self):
        # A caller killed mid-partition (a timeout's SIGKILL, the OOM
        # killer) runs no cleanup, yet its tree must end with it.  The
        # caller is a fresh interpreter whose depth-1 nodes, one in the
        # root child and one in the subtree it forked, report their
        # pids and block; then the caller is killed.
        script = textwrap.dedent(
            """
            import os, signal
            import numpy as np
            import repro.graph.partition as partition_mod
            from repro.mesh.dual import mesh_to_dual_graph
            from repro.mesh.generators import uniform_mesh

            real = partition_mod._tree_node

            def blocking_node(g, vertices, first, k, depth, *rest):
                if depth == 1:
                    os.write(1, f"{os.getpid()}\\n".encode())
                    signal.pause()
                return real(g, vertices, first, k, depth, *rest)

            partition_mod._tree_node = blocking_node
            partition_mod.recursive_bisection(
                mesh_to_dual_graph(uniform_mesh(depth=4)), 4,
                np.random.default_rng(3), n_jobs=2, executor="process",
            )
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        caller = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env
        )
        pidfds: list[int] = []
        try:
            pids = [int(caller.stdout.readline()) for _ in range(2)]
            pidfds = [os.pidfd_open(pid) for pid in pids]
            # The tree stays in the caller's process group, so a signal
            # to the group reaches it too.
            assert {os.getpgid(pid) for pid in pids} == {
                os.getpgid(caller.pid)
            }
            caller.kill()
            caller.wait(timeout=60)
            for fd in pidfds:
                ended, _, _ = select.select([fd], [], [], 60)
                assert ended == [fd], "a tree process outlived its caller"
        finally:
            caller.kill()
            caller.wait(timeout=60)
            caller.stdout.close()
            for fd in pidfds:
                try:
                    signal.pidfd_send_signal(fd, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.close(fd)


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
