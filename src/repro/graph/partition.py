"""Public partitioning API: the recursive-bisection driver.

:func:`partition_graph` is the entry point used by everything else in
the library.  It mirrors ``METIS_PartGraphRecursive``: given a CSR
graph whose vertex weights may have multiple columns (constraints), it
returns a ``(n,)`` part assignment such that every constraint is
balanced across parts within a tolerance, while heuristically
minimizing edge cut.

The paper uses the *recursive bisection* method ("because it produces
higher quality solutions on our meshes", §V), and it is this module's
only driver: a direct k-way variant cut less but lost balance and wall
with no predictable makespan gain (EXPERIMENTS.md "RB vs k-way").

The top of the tree coarsens once.  Its root builds a multilevel
hierarchy with heavy-edge matching; the root's children and
grandchildren of at least ``_INHERIT_MIN_VERTICES`` vertices inherit
their parent's hierarchy restricted to their own side of the cut
(:func:`~repro.graph.bisect.inherit_levels`) and coarsen along it,
falling back to fresh heavy-edge matching only where an inherited
level stalls or the inherited levels run out above the coarsening
target (:func:`~repro.graph.bisect.coarsen`).  Every other node
matches afresh: each further restriction cost cut and makespan
(EXPERIMENTS.md "Coarsen once per partition").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..resilience.errors import PartitionInternalError, PartitionQualityError
from ..util import forkpool
from .bisect import coarsen, inherit_levels, multilevel_bisect
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

__all__ = ["PartitionResult", "partition_graph", "recursive_bisection"]


#: Below this many vertices ``executor="auto"`` runs the tree inline:
#: forking workers costs more than the second CPU saves (break-even
#: measured between 6k and 8k vertices on unit-weight duals, the
#: cheapest per vertex; EXPERIMENTS.md "One seeding rule for the
#: bisection tree").
_POOL_MIN_VERTICES = 8_192


def _use_forks(executor: str | None, num_vertices: int, n_jobs: int) -> bool:
    """Whether the bisection tree runs in forked processes.

    ``None``/``"auto"`` forks from ``_POOL_MIN_VERTICES`` vertices on,
    ``"process"`` at any size, wherever
    :func:`~repro.util.forkpool.can_fork_tree` allows ``n_jobs``
    workers.
    """
    return (
        forkpool.resolve_executor(executor) == "process"
        or num_vertices >= _POOL_MIN_VERTICES
    ) and forkpool.can_fork_tree(n_jobs)


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
        (recursive bisection, contract-clean), ``"components"``
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
    """

    part: np.ndarray
    nparts: int
    cut: float
    imbalance: np.ndarray
    provenance: str = "primary"
    violations: tuple[str, ...] = field(default_factory=tuple)


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


#: How far down the bisection tree a coarsening hierarchy is handed:
#: to the root's children and grandchildren, and only to nodes of at
#: least ``_INHERIT_MIN_VERTICES`` vertices.  Deeper or smaller nodes
#: match afresh, as every node did before inheritance.
_INHERIT_DEPTH = 2
_INHERIT_MIN_VERTICES = 8_192

#: One bisection-tree node: ``(vertices, first, k, depth, rng,
#: inherit)`` — its vertex ids in the root graph (``None`` for the root
#: itself), its first part label, its part count, its depth (0 at the
#: root), its own generator and its parent's coarsening hierarchy
#: restricted to it (``None`` where it matches afresh; see
#: :func:`~repro.graph.bisect.inherit_levels`).
_Node = tuple[
    np.ndarray | None,
    int,
    int,
    int,
    np.random.Generator,
    list[np.ndarray] | None,
]


def _tree_node(
    g: CSRGraph,
    vertices: np.ndarray | None,
    first: int,
    k: int,
    depth: int,
    rng: np.random.Generator,
    inherit: list[np.ndarray] | None,
    level_tol: float,
) -> tuple[_Node, _Node]:
    """Bisect one tree node that must host ``k >= 2`` parts.

    ``g`` is the root graph, in whatever process the node runs (a
    forked subtree inherited it).  The root (``vertices=None``) is
    bisected on the graph itself instead of on an identity ``subgraph``
    copy.  A node coarsens along ``inherit`` when it has one and with
    fresh heavy-edge matching otherwise.

    Returns the two children, whose generators are spawned from
    ``rng`` and whose hierarchies, where they inherit one, are this
    node's restricted to their sides — so a node's labels depend on its
    place in the tree and the root seed alone.
    """
    k0 = (k + 1) // 2
    sub = g if vertices is None else g.subgraph(vertices)[0]
    levels = coarsen(sub, rng, inherit=inherit)
    labels = multilevel_bisect(
        sub, k0 / k, rng, imbalance_tol=level_tol, levels=levels
    )
    left, right = _repair_split(
        np.flatnonzero(labels == 0), np.flatnonzero(labels == 1), k0, k - k0
    )
    r_left, r_right = rng.spawn(2)

    def child(side: np.ndarray, start: int, size: int, r) -> _Node:
        # Root-graph ids travel in int32 below 2**31 vertices: the root
        # narrows them once and every deeper node gathers from those.
        ids = (
            side.astype(np.int32 if g.num_vertices < 2**31 else np.int64)
            if vertices is None
            else vertices[side]
        )
        inherits = (
            size > 1
            and depth < _INHERIT_DEPTH
            and len(side) >= _INHERIT_MIN_VERTICES
        )
        inherited = inherit_levels(levels, side) if inherits else None
        return ids, start, size, depth + 1, r, inherited

    return (
        child(left, first, k0, r_left),
        child(right, first + k0, k - k0, r_right),
    )


def _subtree(
    g: CSRGraph,
    node: _Node,
    level_tol: float,
    part: np.ndarray,
    workers: int,
) -> np.ndarray:
    """Label the subtree under ``node`` into ``part`` and return its
    labels: ``part`` itself for the root, else ``part[vertices]``.

    Runs on ``workers`` processes counting this one: a node that still
    has more than one (never more than half its part count) forks a
    child for its second subtree with half of them, keeps the rest for
    its first, and joins the child's int32 labels once its own stack is
    done.  The child inherits the node's vertex ids, restricted
    hierarchy and generator at fork.  If anything here raises, every
    child not yet joined is killed and reaped first.
    """
    joins: list[tuple[np.ndarray, forkpool.Forked]] = []
    stack = [(node, workers)]
    try:
        while stack:
            (vertices, first, k, *rest), workers = stack.pop()
            if k <= 1:
                part[vertices] = first
                continue
            left, right = _tree_node(g, vertices, first, k, *rest, level_tol)
            workers = min(workers, k // 2)
            if workers > 1:
                forked = forkpool.fork(
                    _subtree, g, right, level_tol, part, workers // 2
                )
                joins.append((right[0], forked))
                stack.append((left, workers - workers // 2))
            else:
                stack += [(right, workers), (left, workers)]
            # The forked child holds the right subtree's hierarchy now.
            del left, right
        while joins:
            ids, forked = joins[-1]
            labels = np.empty(len(ids), dtype=np.int32)
            forked.join(labels)
            joins.pop()
            part[ids] = labels
    finally:
        for _, forked in joins:
            forked.kill()
    return part if node[0] is None else part[node[0]]


def recursive_bisection(
    g: CSRGraph,
    nparts: int,
    rng: np.random.Generator,
    *,
    imbalance_tol: float = 1.05,
    n_jobs: int | None = None,
    executor: str | None = None,
) -> np.ndarray:
    """Recursive-bisection partitioning (the paper's method of choice).

    The part count is split as evenly as possible at each level:
    ``k -> (ceil(k/2), floor(k/2))`` with part 0 targeting
    ``ceil(k/2)/k`` of every constraint's weight.

    Every tree node owns a generator: the root gets ``rng`` and each
    split hands ``rng.spawn(2)`` to its children.  The root and its
    children also hand their coarsening hierarchy, restricted to each
    child's side, to children of at least ``_INHERIT_MIN_VERTICES``
    vertices, which match only where it stalls or runs out (see
    :func:`~repro.graph.bisect.coarsen`).  The two halves of a
    split are independent subproblems, so they run on ``n_jobs``
    workers (resolved by :func:`~repro.util.forkpool.resolve_n_jobs`:
    ``None`` reads the pinned count, then ``REPRO_N_JOBS``, then one
    per CPU), and the labels depend on ``rng``'s seed alone — not on
    the worker count or the order the nodes run in.  A power-of-two
    tree is a prefix of a deeper one: ``k0/k`` is ½ at every node, so
    on a connected graph whose per-level tolerance is the same (the
    1.01 floor from 32 parts on), ``2**j`` parts are the ``2**8``
    labels shifted right by ``8 - j``.

    With workers the tree is fork-join (:func:`~repro.util.forkpool.fork`):
    the root runs in one child forked from this process, and a node
    whose process still has worker budget forks a child for its second
    subtree, which inherits the node's vertex ids, hierarchy and
    generator and sends back only its int32 labels.  So this process
    holds the graph and the labels, never a tree node.  A child that
    raises or dies, or a fork that fails, surfaces here as
    :class:`~repro.resilience.errors.PartitionInternalError`, with every
    process of the tree gone; each process ends with the one that
    forked it, so a caller that is killed leaves none running either.
    ``executor`` is ``"auto"``/``None`` (inline below
    ``_POOL_MIN_VERTICES`` vertices, forked above) or ``"process"``
    (forked at any size).  One worker, a daemonic process and a host
    without ``fork`` or a parent-death signal run the tree inline.
    """
    part = np.zeros(g.num_vertices, dtype=np.int32)
    if nparts <= 1:
        return part

    # The tolerance compounds multiplicatively down the bisection tree,
    # so each level gets the depth-th root of the requested tolerance.
    depth = max(1, int(np.ceil(np.log2(nparts))))
    level_tol = max(1.01, imbalance_tol ** (1.0 / depth))
    # No tree level has more than ``nparts // 2`` nodes to split, so
    # more workers only idle (and at two or three parts the splits are
    # sequential: one worker, inline).
    n_jobs = min(forkpool.resolve_n_jobs(n_jobs), nparts // 2)
    # ``nparts >= 2`` here, so the root is never a leaf.
    root: _Node = (None, 0, nparts, 0, rng, None)
    if not _use_forks(executor, g.num_vertices, n_jobs):
        return _subtree(g, root, level_tol, part, 1)
    try:
        forkpool.fork(_subtree, g, root, level_tol, part, n_jobs).join(part)
    except OSError as exc:  # ChildProcessError too: a failed join
        raise PartitionInternalError(
            f"bisection tree of {g.num_vertices} vertices into {nparts} "
            f"parts failed in a forked worker: {exc}"
        ) from None
    return part


def _combined_weight(g: CSRGraph) -> np.ndarray:
    """Per-vertex scalar proxy weight: every constraint column
    normalized by its total, then summed — so each constraint
    contributes equally to the geometric fallbacks."""
    totals = g.total_vwgt()
    safe = np.where(totals > 0, totals, 1.0)
    return (g.vwgt / safe).sum(axis=1)


def _partition_components(
    g: CSRGraph,
    nparts: int,
    comp_labels: np.ndarray,
    ncomp: int,
    *,
    seed: int,
    imbalance_tol: float,
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
            sub_seed = int(
                np.random.default_rng([seed, c]).integers(2**31 - 1)
            )
            labels = recursive_bisection(
                sub,
                k,
                np.random.default_rng(sub_seed),
                imbalance_tol=imbalance_tol,
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
    seed: int = 0,
    imbalance_tol: float = 1.05,
    n_jobs: int | None = None,
    executor: str | None = None,
    coords: np.ndarray | None = None,
    strict: bool = False,
) -> PartitionResult:
    """Partition a (possibly multi-constraint) graph into ``nparts``.

    Parameters
    ----------
    g:
        The graph; ``g.vwgt`` may have multiple columns, in which case
        every column is balanced simultaneously (multi-constraint mode,
        the mechanism behind the paper's MC_TL strategy).  Inputs are
        hardened by :func:`~repro.graph.contracts.validate_partition_inputs`
        (all-zero constraint columns, ``nparts > n``), and a
        disconnected graph is partitioned component by component.
    seed:
        Seed for the deterministic RNG driving matching/initial
        partitioning tie-breaks.
    n_jobs:
        Workers for the independent halves of recursive bisection
        (``None``: the pinned count, ``REPRO_N_JOBS`` or one per CPU,
        by :func:`~repro.util.forkpool.resolve_n_jobs`; ``-1`` = one
        per CPU; ``1`` = inline).  Does not affect the labels: every
        tree node owns a generator spawned from its parent's (see
        :func:`recursive_bisection`).
    executor:
        How the tree runs with ``n_jobs > 1``: ``"auto"``/``None``
        (inline on small graphs, forked processes above a measured
        vertex floor) or ``"process"`` (forked processes at any size).
        Does not affect the labels.
    coords:
        Optional ``(n, 2)`` vertex coordinates.  When supplied, the
        space-filling-curve rung of the fallback chain becomes
        available (mesh strategies pass cell centers).
    strict:
        Raise :class:`~repro.resilience.errors.PartitionQualityError`
        when the primary result violates the output contract, instead
        of walking the escalating degradation chain (relaxed tolerance
        → SFC → block split).

    Returns
    -------
    :class:`PartitionResult` with labels, cut, per-constraint
    imbalance, and the ``provenance`` of the surviving rung.  A result
    either satisfies the output contract or carries non-default
    provenance/violations — never silent garbage.
    """
    g = validate_partition_inputs(g, nparts).graph
    nparts = int(nparts)

    pool = dict(n_jobs=n_jobs, executor=executor)
    provenance = "primary"
    ncomp = 1
    if nparts > 1:
        comp_labels, ncomp = connected_components(g)
        if ncomp == 1:
            del comp_labels  # all zeros: not held through the tree
    if ncomp > 1:
        part = _partition_components(
            g,
            nparts,
            comp_labels,
            ncomp,
            seed=seed,
            imbalance_tol=imbalance_tol,
            **pool,
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
        part = recursive_bisection(
            g,
            nparts,
            np.random.default_rng(seed),
            imbalance_tol=imbalance_tol,
            **pool,
        )

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
    if violations:
        part, provenance, violations = _fallback_chain(
            g,
            nparts,
            part,
            violations,
            provenance,
            coords=coords,
            seed=seed,
            imbalance_tol=imbalance_tol,
            pool=pool,
        )

    return PartitionResult(
        part=part,
        nparts=nparts,
        cut=edge_cut(g, part),
        imbalance=imbalance(g, part, nparts),
        provenance=provenance,
        violations=tuple(violations),
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
    seed: int,
    imbalance_tol: float,
    pool: dict,
) -> tuple[np.ndarray, str, list[str]]:
    """Walk the escalating degradation chain after a contract failure.

    Rungs, in order: retry recursive bisection with a relaxed tolerance;
    SFC geometric split (when coordinates are available); contiguous
    block split.  The first rung whose result passes its (relaxed)
    contract wins; if none does, the candidate with the fewest
    violations at the relaxed tolerance is returned under the rung that
    produced it (the primary labels keep their own provenance).  Every
    outcome emits a
    :class:`~repro.graph.contracts.PartitionQualityWarning`.
    """
    relaxed_tol = 1.0 + _RELAX_FACTOR * (imbalance_tol - 1.0) + _RELAX_FLOOR
    # Every candidate is judged at the relaxed tolerance.
    v = check_partition_contract(
        g, part, nparts, imbalance_tol=relaxed_tol
    )
    candidates: list[tuple[np.ndarray, str, list[str]]] = [
        (part, provenance, v)
    ]

    # First relaxed rung: keep the primary labels if they already meet
    # the relaxed tolerance — the method optimized the cut at the
    # strict tolerance, so re-running would trade a marginal balance
    # miss for a genuinely worse partition.
    if not v:
        candidates.append((part, "relaxed", v))
    else:
        relaxed = recursive_bisection(
            g,
            nparts,
            np.random.default_rng(int(seed) + 7919),
            imbalance_tol=relaxed_tol,
            **pool,
        )
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

    failed = violations
    part, provenance, violations = chosen
    outcome = (
        "no rung met the relaxed tolerance; kept"
        if chosen is candidates[0]
        else "degraded to"
    )
    warn_quality(
        f"partition into {nparts} parts failed its contract "
        f"({'; '.join(failed)}); {outcome} provenance={provenance!r}"
        + (f" with residual violations {violations}" if violations else ""),
        stage="output",
        provenance=provenance,
        violations=failed + violations,
    )
    return part, provenance, violations
