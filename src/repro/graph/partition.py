"""Public partitioning API: recursive bisection and k-way drivers.

:func:`partition_graph` is the entry point used by everything else in
the library.  It mirrors ``METIS_PartGraphRecursive``: given a CSR
graph whose vertex weights may have multiple columns (constraints), it
returns a ``(n,)`` part assignment such that every constraint is
balanced across parts within a tolerance, while heuristically
minimizing edge cut.

The paper uses the *recursive bisection* method ("because it produces
higher quality solutions on our meshes", §V); we implement it as the
default and provide a direct k-way variant for ablation.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field

import numpy as np

from ..resilience.errors import PartitionQualityError
from .bisect import multilevel_bisect
from .contracts import (
    apportion_parts,
    block_partition,
    check_partition_contract,
    connected_components,
    validate_partition_inputs,
    warn_quality,
    weighted_contiguous_cuts,
)
from .csr import CSRGraph
from .metrics import edge_cut, imbalance
from .refine import fm_refine

__all__ = ["PartitionResult", "partition_graph", "recursive_bisection", "kway_direct"]


def _resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` argument: ``None``/1 → serial, ``-1`` →
    one worker per CPU, other values are used as-is (minimum 1).

    Environment and CLI values are parsed once, by
    :func:`repro.pipeline.jobs.resolve_n_jobs`.
    """
    if n_jobs is None:
        return 1
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, n_jobs)


#: Below this many vertices a process pool's fork/attach overhead
#: outweighs the GIL relief; ``executor="auto"`` keeps threads.
_PROCESS_MIN_VERTICES = 200_000


def _resolve_executor(executor: str | None, num_vertices: int) -> str:
    """Normalize the parallel-backend knob to ``"thread"`` or
    ``"process"``.

    ``None``/``"auto"`` picks processes only for graphs large enough
    (>= ``_PROCESS_MIN_VERTICES`` vertices) to amortize the shared
    segment setup; the environment-level default lives in
    :func:`repro.pipeline.jobs.resolve_executor`.
    """
    if executor is None:
        executor = "auto"
    executor = executor.lower()
    if executor == "auto":
        return "process" if num_vertices >= _PROCESS_MIN_VERTICES else "thread"
    if executor not in ("thread", "process"):
        raise ValueError(
            f"unknown executor {executor!r} (expected 'auto', 'thread' "
            "or 'process')"
        )
    return executor


@dataclass
class PartitionResult:
    """Outcome of a partitioning call.

    Attributes
    ----------
    part:
        ``(n,)`` int32 part labels in ``[0, nparts)``.
    nparts:
        Number of parts requested.
    cut:
        Edge-cut weight of the final partition.
    imbalance:
        ``(ncon,)`` per-constraint imbalance (1.0 = perfect).
    provenance:
        Which rung of the pipeline produced the labels: ``"primary"``
        (the requested method, contract-clean), ``"components"``
        (component-aware path for a disconnected graph),
        ``"relaxed"`` (retry with relaxed tolerance), ``"sfc"``
        (space-filling-curve geometric fallback) or ``"block"``
        (contiguous block split of last resort).  Anything other than
        ``"primary"`` was announced via a
        :class:`~repro.graph.contracts.PartitionQualityWarning`.
    violations:
        Contract violations of the *final* labels (empty for a clean
        result; populated only when every fallback rung still failed
        some check and the least-bad result was returned).
    dtypes:
        Storage-dtype provenance of the run: the dtypes of the input
        graph's ``adjncy``/``vwgt``/``adjwgt`` and of the returned
        labels, e.g. ``{"adjncy": "int32", ...}``.  Records whether
        the scale tier's index/weight narrowing was in effect — the
        narrowed and wide paths produce bit-identical labels (enforced
        by the fuzz differential stage), so this is provenance, not a
        behavioural switch.
    """

    part: np.ndarray
    nparts: int
    cut: float
    imbalance: np.ndarray
    provenance: str = "primary"
    violations: tuple[str, ...] = field(default_factory=tuple)
    dtypes: dict[str, str] = field(default_factory=dict)


def _repair_split(
    left: np.ndarray, right: np.ndarray, k0: int, k1: int
) -> tuple[np.ndarray, np.ndarray]:
    """Ensure each side of a bisection can host its part count.

    ``multilevel_bisect`` balances *weight*, so with heavy-tailed
    vertex weights a side can end up with fewer vertices than the
    parts it must be split into (even zero).  A degenerate side is
    repaired with a proportional split of the combined vertex list,
    which keeps the recursion invariant ``k <= len(vertices)``
    (``k0 + k1 <= len(left) + len(right)`` holds at every node).
    """
    if len(left) < k0 or len(right) < k1:
        merged = np.concatenate([left, right])
        cut = int(round(len(merged) * k0 / (k0 + k1)))
        cut = min(max(cut, k0), len(merged) - k1)
        left, right = merged[:cut], merged[cut:]
    return left, right


def _split_node(
    g: CSRGraph,
    vertices: np.ndarray | None,
    k: int,
    rng: np.random.Generator,
    *,
    level_tol: float,
    max_passes: int,
    init_trials: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Bisect one bisection-tree node that must host ``k >= 2`` parts.

    ``vertices`` are the node's vertices in ``g``; ``None`` stands for
    all of them (the root), which is bisected on ``g`` itself instead
    of on an identity ``subgraph`` copy.  Returns ``(left, right, k0)``:
    the two sides as vertex ids of ``g`` and the left side's part
    count.
    """
    k0 = (k + 1) // 2
    if vertices is None:
        sub = g
    else:
        sub, vertices = g.subgraph(vertices)
    labels = multilevel_bisect(
        sub,
        k0 / k,
        rng,
        imbalance_tol=level_tol,
        max_passes=max_passes,
        init_trials=init_trials,
    )
    if vertices is None:
        left, right = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    else:
        left, right = vertices[labels == 0], vertices[labels == 1]
    return (*_repair_split(left, right, k0, k - k0), k0)


def _shared_bisect_node(
    desc: dict,
    vertices: np.ndarray | None,
    first: int,
    k: int,
    node_rng: np.random.Generator,
    level_tol: float,
    max_passes: int,
    init_trials: int,
):
    """Process-pool worker: one bisection-tree node against the shared
    segment.

    The task payload is the descriptor plus the vertex subset — never
    the graph itself.  Returns ``(leaves, tasks, attach_event)`` where
    ``leaves`` are final ``(vertices, label)`` assignments for the
    parent to apply, ``tasks`` are the two child subproblems, and
    ``attach_event`` is ``(pid, segment_name)`` when this call was the
    process's first and actually attached the segment.
    """
    from .shared import attached_graph

    g, fresh = attached_graph(desc)
    event = (os.getpid(), desc["name"]) if fresh else None
    if k <= 1:
        return [(vertices, first)], [], event
    left, right, k0 = _split_node(
        g,
        vertices,
        k,
        node_rng,
        level_tol=level_tol,
        max_passes=max_passes,
        init_trials=init_trials,
    )
    r_left, r_right = node_rng.spawn(2)
    return (
        [],
        [(left, first, k0, r_left), (right, first + k0, k - k0, r_right)],
        event,
    )


def recursive_bisection(
    g: CSRGraph,
    nparts: int,
    rng: np.random.Generator,
    *,
    imbalance_tol: float = 1.05,
    max_passes: int = 8,
    init_trials: int = 8,
    n_jobs: int | None = 1,
    executor: str | None = None,
    attach_log: list | None = None,
) -> np.ndarray:
    """Recursive-bisection partitioning (the paper's method of choice).

    The part count is split as evenly as possible at each level:
    ``k -> (ceil(k/2), floor(k/2))`` with part 0 targeting
    ``ceil(k/2)/k`` of every constraint's weight.

    With ``n_jobs > 1`` the two halves produced by each split — which
    are fully independent subproblems — are dispatched to a worker
    pool.  The labels depend on ``n_jobs == 1`` versus ``n_jobs > 1``
    and on nothing else: the serial path draws every node from ``rng``
    itself in depth-first order, while the pool paths give every tree
    node its own generator spawned from its parent's, so any worker
    count, scheduling order or backend gives the same labels (ROADMAP
    item 4 unifies the two rules).

    ``executor`` selects the pool backend: ``"thread"`` (shared
    address space), ``"process"`` (GIL-free; the graph is published
    once through :class:`~repro.graph.shared.SharedCSR` and workers
    attach rather than unpickle it), or ``"auto"``/``None`` (threads
    below ~200k vertices, processes above).  ``attach_log``, when a
    list, collects ``(pid, segment_name)`` events proving workers
    attached the shared segment.
    """
    n = g.num_vertices
    part = np.zeros(n, dtype=np.int32)
    if nparts <= 1:
        return part

    # The tolerance compounds multiplicatively down the bisection tree,
    # so each level gets the depth-th root of the requested tolerance.
    depth = max(1, int(np.ceil(np.log2(nparts))))
    level_tol = max(1.01, imbalance_tol ** (1.0 / depth))
    n_jobs = _resolve_n_jobs(n_jobs)
    split = dict(
        level_tol=level_tol, max_passes=max_passes, init_trials=init_trials
    )

    # Every tree starts at ``vertices=None``: the root is all of ``g``
    # and is bisected without copying it (``nparts >= 2`` here, so the
    # root is never a leaf).
    if n_jobs == 1:
        # Serial path: one shared generator, depth-first stack (the
        # seed behaviour, kept bit-for-bit).
        stack: list[tuple[np.ndarray | None, int, int]] = [(None, 0, nparts)]
        while stack:
            vertices, first, k = stack.pop()
            if k <= 1:
                part[vertices] = first
                continue
            left, right, k0 = _split_node(g, vertices, k, rng, **split)
            stack.append((left, first, k0))
            stack.append((right, first + k0, k - k0))
        return part

    def bisect_node(
        vertices: np.ndarray | None,
        first: int,
        k: int,
        node_rng: np.random.Generator,
    ) -> list[tuple[np.ndarray, int, int, np.random.Generator]]:
        if k <= 1:
            # Disjoint fancy-index write; safe across workers.
            part[vertices] = first
            return []
        left, right, k0 = _split_node(g, vertices, k, node_rng, **split)
        r_left, r_right = node_rng.spawn(2)
        return [
            (left, first, k0, r_left),
            (right, first + k0, k - k0, r_right),
        ]

    if _resolve_executor(executor, n) == "process":
        from .shared import SharedCSR

        scsr = SharedCSR.from_graph(g)
        try:
            desc = scsr.descriptor()
            with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                pending = {
                    pool.submit(
                        _shared_bisect_node,
                        desc,
                        None,
                        0,
                        nparts,
                        rng,
                        level_tol,
                        max_passes,
                        init_trials,
                    )
                }
                while pending:
                    done, pending = wait(
                        pending, return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        leaves, tasks, event = fut.result()
                        if event is not None and attach_log is not None:
                            attach_log.append(event)
                        for vertices, label in leaves:
                            part[vertices] = label
                        for task in tasks:
                            pending.add(
                                pool.submit(
                                    _shared_bisect_node,
                                    desc,
                                    *task,
                                    level_tol,
                                    max_passes,
                                    init_trials,
                                )
                            )
        finally:
            scsr.unlink()
        return part

    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        pending = {
            pool.submit(bisect_node, None, 0, nparts, rng)
        }
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                for task in fut.result():
                    pending.add(pool.submit(bisect_node, *task))
    return part


def kway_direct(
    g: CSRGraph,
    nparts: int,
    rng: np.random.Generator,
    *,
    imbalance_tol: float = 1.05,
    max_passes: int = 8,
    n_jobs: int | None = 1,
    executor: str | None = None,
) -> np.ndarray:
    """Direct k-way partitioning via recursive bisection followed by a
    round of pairwise k-way FM sweeps between adjacent parts.

    Provided as an ablation comparator for the paper's choice of
    recursive bisection (§V).  ``n_jobs`` parallelizes the initial
    recursive bisection; the pairwise sweeps mutate shared state and
    stay serial.
    """
    part = recursive_bisection(
        g,
        nparts,
        rng,
        imbalance_tol=imbalance_tol,
        max_passes=max_passes,
        n_jobs=n_jobs,
        executor=executor,
    )
    if nparts <= 2:
        return part
    # Pairwise refinement between parts that share cut edges.
    src = g.edge_sources()
    for _ in range(2):
        pa = part[src]
        pb = part[g.adjncy]
        cut_pairs = np.unique(
            np.sort(np.stack([pa[pa != pb], pb[pa != pb]], axis=1), axis=1),
            axis=0,
        )
        for a, b in cut_pairs:
            sel = np.flatnonzero((part == a) | (part == b))
            if len(sel) < 4:
                continue
            sub, mapping = g.subgraph(sel)
            labels = (part[sel] == b).astype(np.int32)
            labels = fm_refine(
                sub,
                labels,
                target_frac=0.5,
                imbalance_tol=imbalance_tol,
                max_passes=2,
                rng=rng,
            )
            part[mapping[labels == 0]] = a
            part[mapping[labels == 1]] = b
    return part


def _combined_weight(g: CSRGraph) -> np.ndarray:
    """Per-vertex scalar proxy weight: every constraint column
    normalized by its total, then summed — so each constraint
    contributes equally to the geometric fallbacks."""
    totals = g.total_vwgt()
    safe = np.where(totals > 0, totals, 1.0)
    return (g.vwgt / safe).sum(axis=1)


def _run_method(
    g: CSRGraph,
    nparts: int,
    *,
    method: str,
    seed: int,
    imbalance_tol: float,
    max_passes: int,
    init_trials: int,
    n_jobs: int | None,
    executor: str | None = None,
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if method == "recursive":
        return recursive_bisection(
            g,
            nparts,
            rng,
            imbalance_tol=imbalance_tol,
            max_passes=max_passes,
            init_trials=init_trials,
            n_jobs=n_jobs,
            executor=executor,
        )
    if method == "kway":
        return kway_direct(
            g,
            nparts,
            rng,
            imbalance_tol=imbalance_tol,
            max_passes=max_passes,
            n_jobs=n_jobs,
            executor=executor,
        )
    raise ValueError(f"unknown method {method!r}")


def _partition_components(
    g: CSRGraph,
    nparts: int,
    comp_labels: np.ndarray,
    ncomp: int,
    *,
    method: str,
    seed: int,
    imbalance_tol: float,
    max_passes: int,
    init_trials: int,
    n_jobs: int | None,
    executor: str | None = None,
) -> np.ndarray:
    """Component-aware partitioning of a disconnected graph.

    Each component receives its fair (largest-remainder) share of the
    ``nparts`` slots, capped by its vertex count, and is partitioned
    independently; components that earn zero slots are packed onto the
    part with the least combined weight.  Every part label ends up
    non-empty because the slot counts sum to ``nparts`` and each
    component fills all of its own slots.
    """
    n = g.num_vertices
    part = np.zeros(n, dtype=np.int32)
    members = [np.flatnonzero(comp_labels == c) for c in range(ncomp)]
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    proxy = _combined_weight(g)
    weights = np.array(
        [float(proxy[m].sum()) for m in members], dtype=np.float64
    )

    slots = apportion_parts(weights, nparts)
    # Cap slots at the component's vertex count and hand the overflow
    # to the heaviest components that can still absorb a slot.
    over = slots - np.minimum(slots, sizes)
    slots = np.minimum(slots, sizes)
    spare = int(over.sum())
    while spare > 0:
        room = np.flatnonzero(slots < sizes)
        # nparts <= n guarantees room is non-empty here.
        load = weights[room] / (slots[room] + 1.0)
        best = room[int(np.argmax(load))]
        slots[best] += 1
        spare -= 1

    next_label = 0
    packed: list[int] = []
    for c in range(ncomp):
        k = int(slots[c])
        if k == 0:
            packed.append(c)
            continue
        verts = members[c]
        if k == 1:
            part[verts] = next_label
        else:
            sub, mapping = g.subgraph(verts)
            labels = _run_method(
                sub,
                k,
                method=method,
                seed=int(
                    np.random.default_rng([seed, c]).integers(2**31 - 1)
                ),
                imbalance_tol=imbalance_tol,
                max_passes=max_passes,
                init_trials=init_trials,
                n_jobs=n_jobs,
                executor=executor,
            )
            part[mapping] = next_label + labels
        next_label += k

    if packed:
        part_load = np.bincount(part, weights=proxy, minlength=nparts)
        for c in sorted(packed, key=lambda c: -weights[c]):
            target = int(np.argmin(part_load))
            part[members[c]] = target
            part_load[target] += weights[c]
    return part


def partition_graph(
    g: CSRGraph,
    nparts: int,
    *,
    method: str = "recursive",
    seed: int = 0,
    imbalance_tol: float = 1.05,
    max_passes: int = 8,
    init_trials: int = 8,
    n_jobs: int | None = 1,
    executor: str | None = None,
    coords: np.ndarray | None = None,
    strict: bool = False,
    validate: bool = True,
    fallback: bool = True,
) -> PartitionResult:
    """Partition a (possibly multi-constraint) graph into ``nparts``.

    Parameters
    ----------
    g:
        The graph; ``g.vwgt`` may have multiple columns, in which case
        every column is balanced simultaneously (multi-constraint mode,
        the mechanism behind the paper's MC_TL strategy).
    method:
        ``"recursive"`` (default, the paper's choice) or ``"kway"``.
    seed:
        Seed for the deterministic RNG driving matching/initial
        partitioning tie-breaks.
    n_jobs:
        Workers for the independent halves of recursive bisection
        (``-1`` = one per CPU).  The labels depend on ``n_jobs == 1``
        versus ``n_jobs > 1`` and on nothing else (see
        :func:`recursive_bisection`).
    executor:
        Pool backend for ``n_jobs > 1``: ``"thread"``, ``"process"``
        (workers attach one :class:`~repro.graph.shared.SharedCSR`
        segment instead of unpickling graphs) or ``"auto"``/``None``
        (processes only at scale).  Does not affect the labels.
    coords:
        Optional ``(n, 2)`` vertex coordinates.  When supplied, the
        space-filling-curve rung of the fallback chain becomes
        available (mesh strategies pass cell centers).
    strict:
        Raise :class:`~repro.resilience.errors.PartitionQualityError`
        when the primary result violates the output contract, instead
        of walking the fallback chain.
    validate:
        Run :func:`~repro.graph.contracts.validate_partition_inputs`
        (input hardening: disconnected graphs, all-zero constraint
        columns, ``nparts > n``).
    fallback:
        Walk the escalating degradation chain (relaxed tolerance →
        SFC → block split) on a contract violation.  With
        ``fallback=False`` the primary result is returned as-is, with
        its violations recorded.

    Returns
    -------
    :class:`PartitionResult` with labels, cut, per-constraint
    imbalance, and the ``provenance`` of the surviving rung.  A result
    either satisfies the output contract or carries non-default
    provenance/violations — never silent garbage.
    """
    if validate:
        report = validate_partition_inputs(g, nparts)
        g, nparts = report.graph, report.nparts
    else:
        if nparts < 1:
            raise ValueError("nparts must be >= 1")
        if nparts > g.num_vertices and g.num_vertices > 0:
            raise ValueError(
                f"cannot create {nparts} non-empty parts from "
                f"{g.num_vertices} vertices"
            )

    kernel = dict(
        method=method,
        seed=seed,
        imbalance_tol=imbalance_tol,
        max_passes=max_passes,
        init_trials=init_trials,
        n_jobs=n_jobs,
        executor=executor,
    )

    provenance = "primary"
    if validate and nparts > 1 and g.num_vertices > 0:
        comp_labels, ncomp = connected_components(g)
        if ncomp > 1:
            part = _partition_components(
                g, nparts, comp_labels, ncomp, **kernel
            )
            provenance = "components"
            warn_quality(
                f"disconnected graph ({ncomp} components): used "
                "component-aware partitioning",
                stage="input",
                provenance="components",
                violations=[f"{ncomp} connected components"],
            )
        else:
            part = _run_method(g, nparts, **kernel)
    else:
        part = _run_method(g, nparts, **kernel)

    violations = check_partition_contract(
        g, part, nparts, imbalance_tol=imbalance_tol
    )
    if violations and strict:
        raise PartitionQualityError(
            f"partition of {g.num_vertices} vertices into {nparts} "
            "parts violates its output contract: "
            + "; ".join(violations),
            violations=violations,
            provenance=provenance,
        )
    if violations and fallback:
        part, provenance, violations = _fallback_chain(
            g,
            nparts,
            part,
            violations,
            provenance,
            coords=coords,
            kernel=kernel,
        )

    return PartitionResult(
        part=part,
        nparts=nparts,
        cut=edge_cut(g, part),
        imbalance=imbalance(g, part, nparts),
        provenance=provenance,
        violations=tuple(violations),
        dtypes={
            "adjncy": str(g.adjncy.dtype),
            "vwgt": str(g.vwgt.dtype),
            "adjwgt": str(g.adjwgt.dtype),
            "part": str(part.dtype),
        },
    )


#: Multiplier applied to ``imbalance_tol - 1`` for the relaxed-retry
#: rung (1.05 → 1.25 with the +0.10 floor below).
_RELAX_FACTOR = 3.0
_RELAX_FLOOR = 0.10


def _fallback_chain(
    g: CSRGraph,
    nparts: int,
    part: np.ndarray,
    violations: list[str],
    provenance: str,
    *,
    coords: np.ndarray | None,
    kernel: dict,
) -> tuple[np.ndarray, str, list[str]]:
    """Walk the escalating degradation chain after a contract failure.

    Rungs, in order: retry the graph method with a relaxed tolerance;
    SFC geometric split (when coordinates are available); contiguous
    block split.  The first rung whose result passes its (relaxed)
    contract wins; if none does, the least-violating candidate is
    returned.  Every non-primary outcome emits a
    :class:`~repro.graph.contracts.PartitionQualityWarning`.
    """
    tol = float(kernel["imbalance_tol"])
    relaxed_tol = 1.0 + _RELAX_FACTOR * (tol - 1.0) + _RELAX_FLOOR
    candidates: list[tuple[np.ndarray, str, list[str]]] = [
        (part, provenance, violations)
    ]

    # First relaxed rung: keep the primary labels if they already meet
    # the relaxed tolerance — the method optimized the cut at the
    # strict tolerance, so re-running would trade a marginal balance
    # miss for a genuinely worse partition.
    v = check_partition_contract(
        g, part, nparts, imbalance_tol=relaxed_tol
    )
    candidates.append((part, "relaxed", v))
    if v:
        relaxed_kernel = dict(kernel)
        relaxed_kernel["imbalance_tol"] = relaxed_tol
        relaxed_kernel["seed"] = int(kernel["seed"]) + 7919
        relaxed = _run_method(g, nparts, **relaxed_kernel)
        v = check_partition_contract(
            g, relaxed, nparts, imbalance_tol=relaxed_tol
        )
        candidates.append((relaxed, "relaxed", v))

    if not v:
        chosen = candidates[-1]
    else:
        if coords is not None and len(coords) == g.num_vertices:
            from ..partitioning.sfc import sfc_order

            order = sfc_order(np.asarray(coords, dtype=np.float64))
            proxy = _combined_weight(g)
            chunk = weighted_contiguous_cuts(proxy[order], nparts)
            sfc_part = np.zeros(g.num_vertices, dtype=np.int32)
            sfc_part[order] = chunk
            v = check_partition_contract(
                g, sfc_part, nparts, imbalance_tol=relaxed_tol
            )
            candidates.append((sfc_part, "sfc", v))
        if candidates[-1][2]:
            blk = block_partition(
                g.num_vertices, nparts, _combined_weight(g)
            ).astype(np.int32)
            v = check_partition_contract(
                g, blk, nparts, imbalance_tol=relaxed_tol
            )
            candidates.append((blk, "block", v))
        # First clean candidate (skipping the failed primary), else the
        # least-violating one.
        chosen = next(
            (c for c in candidates[1:] if not c[2]),
            min(candidates, key=lambda c: len(c[2])),
        )

    part, provenance, violations = chosen
    warn_quality(
        f"partition into {nparts} parts failed its contract "
        f"({'; '.join(candidates[0][2])}); degraded to "
        f"provenance={provenance!r}"
        + (f" with residual violations {violations}" if violations else ""),
        stage="output",
        provenance=provenance,
        violations=candidates[0][2] + violations,
    )
    return part, provenance, violations
