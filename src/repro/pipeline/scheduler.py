"""Execute a compiled :class:`~repro.pipeline.plan.StagePlan` (the
*schedule* half of the plan/schedule split).

:func:`execute_stage` is the single store protocol for running one
stage — memory LRU, disk read, cross-process claim, compute-and-publish
— factored out of the old ``Pipeline._run_stage`` body verbatim.  Both
the linear oracle path and the DAG scheduler call it, which is what
makes "bit-identical to the linear path" true by construction rather
than by test luck.

:class:`DagScheduler` walks a plan in dependency order with
critical-path-first dispatch (the plan's precomputed bottom levels)
over a bounded worker pool.  Each node moves through
pending → ready → running → done/failed; a failed node marks its
transitive dependents ``skipped``, so in a merged multi-job plan a
failure in one job's unshared suffix cannot touch jobs whose chains
avoid that node — failure isolation falls out of the graph structure.

``max_workers == 1`` runs a serial inline loop (no thread pool): this
is the path ``Pipeline.run`` takes for a single scenario, so the
refactor adds no threading overhead or ordering nondeterminism to the
interactive case.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .hashing import canonical_json, stage_digest
from .jobs import resolve_n_jobs
from .plan import StagePlan, StageTask
from .stages import STAGE_ORDER
from .store import ArtifactStore, default_store

__all__ = ["execute_stage", "NodeResult", "PlanResult", "DagScheduler"]


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
    from .stages import STAGES

    stage = STAGES[name]
    if digest is None:
        digest = stage_digest(
            stage.name, stage.version, config, upstream_digests
        )
    t0 = time.perf_counter()
    obj = store.memory_get(digest)
    cache: str | None = None
    if obj is not None:
        cache = "memory"
        store.stats.memory_hits += 1
    else:
        payload = store.disk_read(stage.name, digest)
        if payload is not None:
            meta = payload.sidecar.get("meta") or {}
            obj = stage.unpack(payload.arrays, meta, *upstream_objects)
            cache = "disk"
            store.stats.disk_hits += 1
        else:
            # Cross-process coordination: on a shared miss exactly
            # one worker wins the claim and computes; the others
            # block on the claim and read the published artifact.
            # Up to two reader rounds absorb a winner whose publish
            # turned out corrupt (quarantined on read).
            for _ in range(3):
                lease = store.claim(stage.name, digest)
                if lease is not None and lease.role == "reader":
                    lease.release()
                    payload = store.disk_read(stage.name, digest)
                    if payload is not None:
                        meta = payload.sidecar.get("meta") or {}
                        obj = stage.unpack(
                            payload.arrays, meta, *upstream_objects
                        )
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
                # Pathological: every published copy we were told
                # to read was corrupt.  Compute locally, uncached.
                store.stats.misses += 1
                obj = stage.compute(config, *upstream_objects)
        store.memory_put(digest, obj)
    return obj, digest, cache, time.perf_counter() - t0


@dataclass
class NodeResult:
    """Terminal state of one plan node after scheduling."""

    key: str
    stage: str
    #: "done" | "failed" | "skipped" (upstream failed) |
    #: "cancelled" (scheduler stopped before reaching it)
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
        """``"done"`` | ``"failed"`` | ``"cancelled"`` for one job."""
        state = "done"
        for key in self.plan.job_stages[job].values():
            node = self.nodes.get(key)
            if node is None or node.state == "cancelled":
                return "cancelled"
            if node.state == "failed":
                return "failed"
            if node.state == "skipped":
                state = "failed"
        return state

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
    def stage_counters(self) -> dict[str, dict[str, int]]:
        """Per-stage execution accounting.

        ``job_stages`` is what N independent runs would have executed;
        ``nodes`` is what the merged plan scheduled; ``computed`` /
        ``memory`` / ``disk`` split how the scheduled nodes were
        served; ``shared`` counts the job-stage executions the merge
        elided entirely.
        """
        out: dict[str, dict[str, int]] = {}
        for name in STAGE_ORDER:
            out[name] = {
                "nodes": 0,
                "job_stages": 0,
                "computed": 0,
                "memory": 0,
                "disk": 0,
                "shared": 0,
            }
        for node in self.nodes.values():
            c = out[node.stage]
            c["nodes"] += 1
            c["job_stages"] += len(node.jobs)
            c["shared"] += max(0, len(node.jobs) - 1)
            if node.state != "done":
                continue
            if node.cache is None:
                c["computed"] += 1
            else:
                c[node.cache] += 1
        return {k: v for k, v in out.items() if v["nodes"]}

    @property
    def failed(self) -> bool:
        return any(n.state == "failed" for n in self.nodes.values())


class DagScheduler:
    """Dependency-ordered, critical-path-first plan executor.

    Parameters
    ----------
    store:
        Artifact store shared by every node (defaults to the
        process-wide store).
    max_workers:
        Bound on concurrently running nodes (``-1``: one per CPU).
        The default, ``1``, executes inline: the CPUs go to each
        partition's bisection tree, not to stage nodes.
    on_node:
        Optional callback invoked (from the scheduler's completion
        thread) with each terminal :class:`NodeResult` whose state is
        ``done`` or ``failed`` — the daemon's stage-level progress
        stream.  Exceptions from it are swallowed: observability must
        not kill the run.
    should_stop:
        Optional predicate polled before each dispatch; returning True
        cancels all not-yet-running nodes (drain support).
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        *,
        max_workers: int = 1,
        on_node: Callable[[NodeResult], None] | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> None:
        self.store = store if store is not None else default_store()
        self.max_workers = resolve_n_jobs(max_workers)
        self.on_node = on_node
        self.should_stop = should_stop

    # ------------------------------------------------------------------
    def _notify(self, result: NodeResult) -> None:
        if self.on_node is None:
            return
        try:
            self.on_node(result)
        except Exception:
            pass

    def _run_node(
        self, task: StageTask, objects: dict[str, Any]
    ) -> NodeResult:
        upstream = tuple(objects[d] for d in task.deps)
        try:
            obj, _, cache, wall = execute_stage(
                self.store,
                task.stage,
                task.config,
                task.deps,
                upstream,
                digest=task.key,
            )
        except BaseException as exc:  # noqa: BLE001 — recorded, not raised
            return NodeResult(
                key=task.key,
                stage=task.stage,
                state="failed",
                error=exc,
                jobs=task.jobs,
            )
        objects[task.key] = obj
        return NodeResult(
            key=task.key,
            stage=task.stage,
            state="done",
            cache=cache,
            wall_time=wall,
            jobs=task.jobs,
        )

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

        stopped = False
        if self.max_workers == 1:
            while ready:
                if self.should_stop is not None and self.should_stop():
                    stopped = True
                    break
                _, _, key = heapq.heappop(ready)
                settle(self._run_node(plan.nodes[key], objects))
        else:
            inflight: dict[Future[NodeResult], str] = {}
            with ThreadPoolExecutor(
                max_workers=self.max_workers
            ) as pool:
                while ready or inflight:
                    while ready and len(inflight) < self.max_workers:
                        if (
                            self.should_stop is not None
                            and self.should_stop()
                        ):
                            stopped = True
                            ready.clear()
                            break
                        _, _, key = heapq.heappop(ready)
                        fut = pool.submit(
                            self._run_node, plan.nodes[key], objects
                        )
                        inflight[fut] = key
                    if not inflight:
                        break
                    done, _ = wait(
                        inflight, return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        inflight.pop(fut)
                        settle(fut.result())

        for key, task in plan.nodes.items():
            if key not in result.nodes:
                result.nodes[key] = NodeResult(
                    key=key,
                    stage=task.stage,
                    state="cancelled",
                    jobs=task.jobs,
                )
        if stopped:
            return result
        return result
