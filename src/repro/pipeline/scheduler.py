"""Execute a compiled :class:`~repro.pipeline.plan.StagePlan` (the
*schedule* half of the plan/schedule split).

:func:`execute_stage` is the single store protocol for running one
stage — memory LRU, disk read, cross-process claim, compute-and-publish.
Every node the scheduler computes runs through it, in this process or
in a pool worker, so a node's artifact does not depend on where it ran.

:class:`DagScheduler` walks a plan in dependency order with
critical-path-first dispatch (the plan's precomputed bottom levels).
Each node moves through pending → ready → running → done/failed; a
failed node marks its transitive dependents ``skipped``, so in a merged
multi-job plan a failure in one job's unshared suffix cannot touch jobs
whose chains avoid that node — failure isolation falls out of the graph
structure.

One loop runs every plan, in rounds.  Where no pool may start
(:func:`~repro.util.forkpool.can_fork_pool`: one worker, as
``Pipeline.run`` asks, or a daemonic serve job child), a round is the
one node on top of the ready heap, run here through
:func:`execute_stage`, so nodes run one at a time in critical-path
order.  Otherwise a round is every node ready at its start.  Memory and
disk hits resolve in this process, and so do partition nodes, whose
bisection tree forks its own processes.  Two or more remaining misses run on
one pool of processes forked for the round
(:func:`~repro.util.forkpool.fork_pool`), submitted largest first by
the size their inputs state (a schedule node's task graph's tasks plus
edges; nodes of a stage without a ``size`` go first, in ready order),
so a round does not end on one worker running its last big node.  The
workers inherit every upstream object computed so far, so nothing is
pickled on the way in, and each returns the stage's ``pack()``, which
this process ``unpack()``s into its memory layer as on a disk hit.  A
node that becomes ready during a round waits for the next one; a lone
miss runs inline.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import Future, as_completed
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Sequence

from ..util import forkpool
from .hashing import canonical_json, stage_digest
from .plan import StagePlan, StageTask
from .stages import STAGES
from .store import ArtifactStore, StoreStats, default_store

__all__ = ["execute_stage", "NodeResult", "PlanResult", "DagScheduler"]


def _cached(
    store: ArtifactStore,
    name: str,
    digest: str,
    upstream_objects: Sequence[Any],
) -> tuple[Any, str] | None:
    """``(obj, cache)`` for a memory or disk hit on ``digest``, counted
    in ``store.stats`` (a disk hit also enters the memory layer);
    ``None`` on a miss."""
    obj = store.memory_get(digest)
    if obj is not None:
        store.stats.memory_hits += 1
        return obj, "memory"
    payload = store.disk_read(name, digest)
    if payload is None:
        return None
    meta = payload.sidecar.get("meta") or {}
    obj = STAGES[name].unpack(payload.arrays, meta, *upstream_objects)
    store.stats.disk_hits += 1
    store.memory_put(digest, obj)
    return obj, "disk"


def execute_stage(
    store: ArtifactStore,
    name: str,
    config: Any,
    upstream_digests: Sequence[str],
    upstream_objects: Sequence[Any],
    *,
    digest: str | None = None,
) -> tuple[Any, str, str | None, float]:
    """Run one stage through the full store protocol.

    Returns ``(obj, digest, cache, wall_time)`` where ``cache`` is
    ``"memory"``, ``"disk"`` or ``None`` (computed fresh).  ``digest``
    may be passed when the caller already derived the content address
    (plan nodes carry it); it is re-derived otherwise.
    """
    stage = STAGES[name]
    if digest is None:
        digest = stage_digest(
            stage.name, stage.version, config, upstream_digests
        )
    t0 = time.perf_counter()
    hit = _cached(store, name, digest, upstream_objects)
    if hit is not None:
        return hit[0], digest, hit[1], time.perf_counter() - t0
    obj: Any = None
    cache: str | None = None
    # Cross-process coordination: on a shared miss exactly one worker
    # wins the claim and computes; the others block on the claim and
    # read the published artifact.  Up to two reader rounds absorb a
    # winner whose publish turned out corrupt (quarantined on read).
    for _ in range(3):
        lease = store.claim(stage.name, digest)
        if lease is not None and lease.role == "reader":
            lease.release()
            payload = store.disk_read(stage.name, digest)
            if payload is not None:
                meta = payload.sidecar.get("meta") or {}
                obj = stage.unpack(payload.arrays, meta, *upstream_objects)
                cache = "disk"
                store.stats.disk_hits += 1
                break
            continue  # published entry unreadable; re-claim
        try:
            store.stats.misses += 1
            obj = stage.compute(config, *upstream_objects)
            wall = time.perf_counter() - t0
            arrays, meta = stage.pack(obj)
            store.disk_write(
                stage.name,
                digest,
                arrays,
                sidecar={
                    "config": canonical_json(config),
                    "upstream": list(upstream_digests),
                    "stage_version": stage.version,
                    "wall_time": wall,
                    "created": time.time(),
                    "meta": meta,
                },
                lease=lease,
            )
        finally:
            if lease is not None:
                lease.release()
        break
    if obj is None:
        # Pathological: every published copy we were told to read was
        # corrupt.  Compute locally, uncached.
        store.stats.misses += 1
        obj = stage.compute(config, *upstream_objects)
    store.memory_put(digest, obj)
    return obj, digest, cache, time.perf_counter() - t0


@dataclass
class NodeResult:
    """Terminal state of one plan node after scheduling."""

    key: str
    stage: str
    #: "done" | "failed" | "skipped" (upstream failed)
    state: str
    cache: str | None = None  # "memory" | "disk" | None, when done
    wall_time: float = 0.0
    error: BaseException | None = None
    jobs: tuple[int, ...] = ()


@dataclass
class PlanResult:
    """Everything the scheduler knows after executing a plan."""

    plan: StagePlan
    nodes: dict[str, NodeResult] = field(default_factory=dict)
    objects: dict[str, Any] = field(default_factory=dict)

    # -- per-job views -------------------------------------------------
    def job_state(self, job: int) -> str:
        """``"done"``, or ``"failed"`` when a node along the job's
        chain failed or was skipped."""
        for key in self.plan.job_stages[job].values():
            if self.nodes[key].state != "done":
                return "failed"
        return "done"

    def job_error(self, job: int) -> BaseException | None:
        """The causal exception for a failed job (the first failed or
        skipped node along its chain)."""
        for key in self.plan.job_stages[job].values():
            node = self.nodes.get(key)
            if node is not None and node.error is not None:
                return node.error
        return None

    def job_cache(self, job: int, key: str) -> str | None:
        """Provenance of node ``key`` *as seen by* ``job``.

        The job that computes a shared node reports the node's real
        store provenance; every other job riding it reports
        ``"shared"`` — prefix reuse inside the merged plan, distinct
        from a store hit.
        """
        node = self.nodes[key]
        if node.cache is not None:
            return node.cache
        return None if job == min(node.jobs, default=job) else "shared"

    # -- aggregates ----------------------------------------------------
    @property
    def failed(self) -> bool:
        return any(n.state == "failed" for n in self.nodes.values())


def _pool_node(
    key: str,
) -> tuple[tuple[dict, dict], str | None, float, dict[str, Any]]:
    """Run plan node ``key`` in a pool worker through
    :func:`execute_stage`.

    The worker inherited the round's store, plan and computed objects
    at fork (:func:`~repro.util.forkpool.inherited`), so no upstream
    object is pickled on the way in.  Returns the stage's ``pack()`` of
    the object, its provenance and wall time, and the store counters
    the run moved (this worker's store is a copy, so the scheduling
    process adds them to its own).
    """
    store, plan, objects = forkpool.inherited()
    task = plan.nodes[key]
    before = replace(store.stats)
    obj, _, cache, wall = execute_stage(
        store,
        task.stage,
        task.config,
        task.deps,
        tuple(objects[d] for d in task.deps),
        digest=key,
    )
    moved = {
        f.name: (
            getattr(store.stats, f.name) - getattr(before, f.name)
            if f.name != "degraded"
            else store.stats.degraded
        )
        for f in fields(StoreStats)
        if getattr(store.stats, f.name) != getattr(before, f.name)
    }
    return STAGES[task.stage].pack(obj), cache, wall, moved


def _size(task: StageTask, objects: dict[str, Any]) -> tuple[bool, int]:
    """Sort key for a pooled round's dispatch: nodes without a stated
    size first, then the larger the size the earlier."""
    size = getattr(STAGES[task.stage], "size", None)
    if size is None:
        return False, 0
    return True, -size(*(objects[d] for d in task.deps))


class DagScheduler:
    """Dependency-ordered, critical-path-first plan executor.

    Parameters
    ----------
    store:
        Artifact store shared by every node (defaults to the
        process-wide store).
    max_workers:
        Bound on concurrently running nodes (``-1``: one per CPU).
        The default, ``1``, executes inline, one node at a time; more
        run each round's misses on a forked pool (see the module
        docstring).
    on_node:
        Optional callback invoked, in the calling process, with each
        terminal :class:`NodeResult` whose state is ``done`` or
        ``failed`` — the daemon's stage-level progress stream.
        Exceptions from it are swallowed: observability must not kill
        the run.
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        *,
        max_workers: int = 1,
        on_node: Callable[[NodeResult], None] | None = None,
    ) -> None:
        self.store = store if store is not None else default_store()
        self.max_workers = forkpool.resolve_n_jobs(max_workers)
        self.on_node = on_node

    # ------------------------------------------------------------------
    def _notify(self, result: NodeResult) -> None:
        if self.on_node is None:
            return
        try:
            self.on_node(result)
        except Exception:
            pass

    @staticmethod
    def _failed(task: StageTask, exc: BaseException) -> NodeResult:
        return NodeResult(
            key=task.key,
            stage=task.stage,
            state="failed",
            error=exc,
            jobs=task.jobs,
        )

    @staticmethod
    def _done(
        task: StageTask,
        objects: dict[str, Any],
        obj: Any,
        cache: str | None,
        wall: float,
    ) -> NodeResult:
        objects[task.key] = obj
        return NodeResult(
            key=task.key,
            stage=task.stage,
            state="done",
            cache=cache,
            wall_time=wall,
            jobs=task.jobs,
        )

    def _run_node(
        self, task: StageTask, objects: dict[str, Any]
    ) -> NodeResult:
        try:
            obj, _, cache, wall = execute_stage(
                self.store,
                task.stage,
                task.config,
                task.deps,
                tuple(objects[d] for d in task.deps),
                digest=task.key,
            )
        except BaseException as exc:  # noqa: BLE001 — recorded, not raised
            return self._failed(task, exc)
        return self._done(task, objects, obj, cache, wall)

    def _hit(
        self, task: StageTask, objects: dict[str, Any]
    ) -> NodeResult | None:
        """``task`` served from the store here, or ``None`` on a miss."""
        t0 = time.perf_counter()
        try:
            hit = _cached(
                self.store,
                task.stage,
                task.key,
                tuple(objects[d] for d in task.deps),
            )
        except BaseException as exc:  # noqa: BLE001 — recorded, not raised
            return self._failed(task, exc)
        if hit is None:
            return None
        obj, cache = hit
        return self._done(
            task, objects, obj, cache, time.perf_counter() - t0
        )

    def _unpack(
        self, task: StageTask, objects: dict[str, Any], fut: Future
    ) -> NodeResult:
        """Settle a pool worker's result for ``task`` here, as a disk
        hit is: unpack it, count its store traffic, enter it in the
        memory layer."""
        try:
            (arrays, meta), cache, wall, moved = fut.result()
            obj = STAGES[task.stage].unpack(
                arrays, meta, *(objects[d] for d in task.deps)
            )
        except BaseException as exc:  # noqa: BLE001 — recorded, not raised
            return self._failed(task, exc)
        stats = self.store.stats
        for name, value in moved.items():
            if name != "degraded":
                value += getattr(stats, name)
            setattr(stats, name, value)
        self.store.memory_put(task.key, obj)
        return self._done(task, objects, obj, cache, wall)

    def _skip_dependents(
        self, plan: StagePlan, result: PlanResult, key: str
    ) -> None:
        """Mark every transitive dependent of a failed node skipped."""
        cause = result.nodes[key].error
        frontier = list(plan.dependents[key])
        while frontier:
            k = frontier.pop()
            if k in result.nodes:
                continue
            task = plan.nodes[k]
            result.nodes[k] = NodeResult(
                key=k,
                stage=task.stage,
                state="skipped",
                error=cause,
                jobs=task.jobs,
            )
            frontier.extend(plan.dependents[k])

    def _round(
        self,
        plan: StagePlan,
        objects: dict[str, Any],
        keys: list[str],
        settle: Callable[[NodeResult], None],
        pooled: bool,
    ) -> None:
        """Run one round of ready nodes.

        Without ``pooled`` every node runs here through
        :func:`execute_stage`; with it, store hits and partitions run
        here and the misses left go to a pool when two or more remain.
        """
        misses: list[StageTask] = []
        for key in keys:
            task = plan.nodes[key]
            if not pooled or task.stage == "partition":
                settle(self._run_node(task, objects))
                continue
            node = self._hit(task, objects)
            if node is None:
                misses.append(task)
            else:
                settle(node)
        if not misses:
            return
        workers = min(self.max_workers, len(misses))
        if not forkpool.can_fork_pool(workers):
            for task in misses:
                settle(self._run_node(task, objects))
            return
        # Largest first, so the round does not end on one worker
        # running the last big node while the others idle; nodes whose
        # stage states no size go first, in ready order.
        misses.sort(key=lambda task: _size(task, objects))
        with forkpool.fork_pool(workers, self.store, plan, objects) as pool:
            inflight = {
                pool.submit(_pool_node, task.key): task for task in misses
            }
            for fut in as_completed(inflight):
                settle(self._unpack(inflight[fut], objects, fut))

    # ------------------------------------------------------------------
    def execute(self, plan: StagePlan) -> PlanResult:
        """Run every node of ``plan``; never raises for node failures
        (inspect the returned :class:`PlanResult`)."""
        result = PlanResult(plan=plan)
        objects = result.objects
        remaining_deps = {
            key: sum(1 for d in task.deps if d not in objects)
            for key, task in plan.nodes.items()
        }
        # Heap entries (-priority, -fanout, key): critical path first,
        # then widest sharing, then digest order — fully deterministic.
        ready: list[tuple[float, int, str]] = [
            (-plan.priority[k], -len(plan.nodes[k].jobs), k)
            for k, n in remaining_deps.items()
            if n == 0
        ]
        heapq.heapify(ready)

        def settle(node: NodeResult) -> None:
            result.nodes[node.key] = node
            if node.state == "done":
                for dep_key in plan.dependents[node.key]:
                    remaining_deps[dep_key] -= 1
                    if remaining_deps[dep_key] == 0:
                        heapq.heappush(
                            ready,
                            (
                                -plan.priority[dep_key],
                                -len(plan.nodes[dep_key].jobs),
                                dep_key,
                            ),
                        )
            else:
                self._skip_dependents(plan, result, node.key)
            self._notify(node)

        # Without a pool a round is the node on top of the heap, so a
        # node that becomes ready can overtake the rest in
        # critical-path order, and no node is looked up twice.
        pooled = forkpool.can_fork_pool(self.max_workers)
        while ready:
            keys = (
                [heapq.heappop(ready)[2] for _ in range(len(ready))]
                if pooled
                else [heapq.heappop(ready)[2]]
            )
            self._round(plan, objects, keys, settle, pooled)
        # Every node is now done, failed, or skipped behind a failure.
        return result
