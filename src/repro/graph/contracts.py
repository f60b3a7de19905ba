"""Partition input/output contracts and graceful-degradation helpers.

METIS-class partitioners survive production because they (a) validate
their inputs instead of trusting the mesh pipeline, and (b) never hand
back a silently broken answer.  This module gives the from-scratch
partitioner the same armor:

* :func:`validate_partition_inputs` — the canonical input pass used by
  :func:`repro.graph.partition.partition_graph` and every strategy in
  :mod:`repro.partitioning.strategies`.  It normalizes ``nparts``,
  drops all-zero constraint columns (empty temporal-level classes)
  with a structured :class:`PartitionQualityWarning`, and rejects
  malformed weights with typed :class:`ValueError`\\ s.
* :func:`check_partition_contract` — the output contract: labels in
  ``[0, nparts)``, no empty parts, every constraint balanced within
  tolerance (plus the unavoidable one-vertex discreteness slack).
* :func:`connected_components` / :func:`apportion_parts` — the
  component-aware path for disconnected graphs: partition each
  component with its fair share of parts, then pack partless
  components onto the lightest part.
* :func:`weighted_contiguous_cuts` / :func:`block_partition` — the
  geometric/last-resort fallback splitters; both guarantee non-empty
  parts by construction.

The escalating fallback chain itself (primary → relaxed tolerance →
SFC → block split) lives in :func:`repro.graph.partition.partition_graph`,
which records the rung that fired in ``PartitionResult.provenance``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import csr
from .csr import CSRGraph

__all__ = [
    "PartitionQualityWarning",
    "InputReport",
    "validate_partition_inputs",
    "check_partition_contract",
    "connected_components",
    "apportion_parts",
    "weighted_contiguous_cuts",
    "block_partition",
    "warn_quality",
]


class PartitionQualityWarning(UserWarning):
    """Structured warning for degraded partitioner inputs or outputs.

    Attributes
    ----------
    stage:
        ``"input"`` (degenerate input handled gracefully) or
        ``"output"`` (contract violation triggered a fallback rung).
    provenance:
        The rung that produced the surviving result (``"primary"``,
        ``"components"``, ``"relaxed"``, ``"sfc"``, ``"block"``).
    violations:
        Human-readable list of failed checks / degradations.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: str = "output",
        provenance: str = "primary",
        violations: list[str] | None = None,
    ) -> None:
        super().__init__(message)
        self.stage = str(stage)
        self.provenance = str(provenance)
        self.violations = list(violations or [])


def warn_quality(
    message: str,
    *,
    stage: str = "output",
    provenance: str = "primary",
    violations: list[str] | None = None,
) -> None:
    """Emit a :class:`PartitionQualityWarning` attributed to the caller."""
    warnings.warn(
        PartitionQualityWarning(
            message,
            stage=stage,
            provenance=provenance,
            violations=violations,
        ),
        stacklevel=3,
    )


@dataclass
class InputReport:
    """Outcome of :func:`validate_partition_inputs`.

    Attributes
    ----------
    graph:
        The (possibly re-weighted) graph to partition.
    dropped_constraints:
        Indices of all-zero constraint columns removed from ``vwgt``
        (e.g. empty temporal-level classes after adaptation).
    notes:
        Human-readable degradation notes (one per event).
    """

    graph: CSRGraph
    dropped_constraints: list[int] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def validate_partition_inputs(g: CSRGraph, nparts: int) -> InputReport:
    """Validate and normalize partitioner inputs.

    Typed :class:`ValueError`\\ s for caller bugs (negative/NaN
    weights, ``nparts < 1``, more than one part for fewer vertices —
    an empty graph admits only ``nparts=1``);
    graceful degradation with a :class:`PartitionQualityWarning` for
    inputs that are legal but degenerate (all-zero constraint columns).

    Returns an :class:`InputReport`; callers should partition
    ``report.graph`` into ``nparts`` parts.
    """
    n = g.num_vertices
    nparts = int(nparts)
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")

    report = InputReport(graph=g)

    if nparts > max(n, 1):
        raise ValueError(
            f"cannot create {nparts} non-empty parts from {n} vertices"
        )

    vwgt = g.vwgt
    if not np.all(np.isfinite(vwgt)):
        raise ValueError("vertex weights must be finite (found NaN/inf)")
    if np.any(vwgt < 0):
        raise ValueError("vertex weights must be non-negative")
    if len(g.adjwgt) and (
        not np.all(np.isfinite(g.adjwgt)) or np.any(g.adjwgt < 0)
    ):
        raise ValueError("edge weights must be finite and non-negative")

    # Empty constraint classes (e.g. a temporal level no cell occupies
    # after re-leveling) carry no balance information and poison the
    # per-constraint imbalance denominators — drop them.
    if n > 0 and g.ncon > 1:
        totals = g.total_vwgt()
        zero = np.flatnonzero(totals <= 0.0)
        if len(zero):
            keep = np.flatnonzero(totals > 0.0)
            report.dropped_constraints = [int(c) for c in zero]
            if len(keep):
                report.graph = g.with_vwgt(
                    np.ascontiguousarray(vwgt[:, keep])
                )
                report.notes.append(
                    f"dropped {len(zero)} all-zero constraint "
                    f"column(s) {report.dropped_constraints}"
                )
            else:
                report.graph = g.with_vwgt(np.ones((n, 1)))
                report.notes.append(
                    "all constraint columns were zero; falling back to "
                    "unit vertex weights"
                )
    elif n > 0 and g.ncon == 1 and float(g.total_vwgt()[0]) <= 0.0:
        report.graph = g.with_vwgt(np.ones((n, 1)))
        report.notes.append(
            "total vertex weight is zero; falling back to unit weights"
        )

    if report.notes:
        warn_quality(
            "degenerate partition input: " + "; ".join(report.notes),
            stage="input",
            violations=report.notes,
        )
    return report


def check_partition_contract(
    g: CSRGraph,
    part: np.ndarray,
    nparts: int,
    *,
    imbalance_tol: float = 1.05,
) -> list[str]:
    """Check the partition output contract; return violations (empty =
    clean).

    Checks, in order:

    1. label array shape/range: ``(n,)`` integers in ``[0, nparts)``;
    2. no empty part (when ``n >= nparts``);
    3. per-constraint imbalance within ``imbalance_tol``, with the
       standard discreteness allowance of one heaviest vertex per part
       (a part can always be forced one vertex past its target by
       integer weights — METIS grants the same slack via ``ubvec``).
    """
    n = g.num_vertices
    violations: list[str] = []
    part = np.asarray(part)
    if part.shape != (n,):
        return [f"label array has shape {part.shape}, expected ({n},)"]
    if not np.issubdtype(part.dtype, np.integer):
        return [f"label array has dtype {part.dtype}, expected integer"]
    if n == 0:
        return violations

    pmin, pmax = int(part.min()), int(part.max())
    if pmin < 0 or pmax >= nparts:
        violations.append(
            f"labels span [{pmin}, {pmax}], outside [0, {nparts})"
        )
        return violations

    counts = np.bincount(part, minlength=nparts)
    if n >= nparts:
        empty = np.flatnonzero(counts == 0)
        if len(empty):
            violations.append(
                f"{len(empty)} empty part(s): {empty[:8].tolist()}"
            )

    # Per-constraint balance with the one-vertex discreteness slack.
    vwgt = g.vwgt
    totals = g.total_vwgt()
    for c in range(g.ncon):
        total = float(totals[c])
        if total <= 0:
            continue
        pw = np.bincount(part, weights=vwgt[:, c], minlength=nparts)
        wmax = float(vwgt[:, c].max())
        allowed = (total / nparts) * imbalance_tol + wmax
        worst = int(np.argmax(pw))
        if pw[worst] > allowed + 1e-9:
            violations.append(
                f"constraint {c}: part {worst} holds {pw[worst]:.6g} "
                f"> allowed {allowed:.6g} "
                f"(total {total:.6g}, nparts {nparts}, "
                f"tol {imbalance_tol:g})"
            )
    return violations


def connected_components(g: CSRGraph) -> tuple[np.ndarray, int]:
    """Connected components of a CSR graph.

    Returns ``(labels, ncomp)`` where ``labels[v]`` is the component id
    of vertex ``v`` in ``[0, ncomp)``, components numbered in order of
    their smallest vertex.  Min-label propagation with pointer jumping:
    every round hooks each root onto the smallest root next to any of
    its vertices (a segmented minimum over the CSR rows), then
    flattens the forest, so a component's root ends as its smallest
    vertex.  A round visits the rows in
    :meth:`~repro.graph.csr.CSRGraph.row_windows` and hooks window by
    window, so besides the forest and its jump buffer (two
    ``n``-vectors, the forest becoming the labels) it holds one
    window's gather and degrees, never an ``m``-length gather nor the
    graph's cached ``n``-vector of degrees.  Hooking only lowers a
    vertex's pointer to a smaller id of its own component, so the
    fixpoint, and with it the labels, is the one a whole-graph round
    reaches.  The forest is int32 below ``2**31`` vertices, and so are
    the labels; the root ranks reuse the jump buffer.
    """
    n = g.num_vertices
    xadj, adjncy = g.xadj, g.adjncy
    parent = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    grand = np.empty_like(parent)
    # Jumps and relabelling gather in vertex windows too: a whole-array
    # ``np.take`` would first copy the int32 ids to intp.
    step = max(1, csr.ROW_WINDOW_EDGES)
    while True:
        hooked = False
        for lo, hi in g.row_windows():
            rows = lo + np.flatnonzero(np.diff(xadj[lo : hi + 1]))
            if not len(rows):
                continue
            e0 = xadj[rows[0]]
            nearest = np.minimum.reduceat(
                parent[adjncy[e0 : xadj[rows[-1] + 1]]], xadj[rows] - e0
            )
            own = parent[rows]
            hook = nearest < own
            if hook.any():
                hooked = True
                np.minimum.at(parent, own[hook], nearest[hook])
        if not hooked:
            break
        while True:
            for lo in range(0, n, step):
                grand[lo : lo + step] = parent[parent[lo : lo + step]]
            if np.array_equal(grand, parent):
                break
            parent, grand = grand, parent
    # Every vertex points at its component's root, and a root at
    # itself, so the roots are exactly the values of the forest.
    roots = np.zeros(n, dtype=bool)
    roots[parent] = True
    rank = np.cumsum(roots, dtype=parent.dtype, out=grand)
    ncomp = int(rank[-1]) if n else 0
    rank -= 1
    for lo in range(0, n, step):
        parent[lo : lo + step] = rank[parent[lo : lo + step]]
    return parent, ncomp


def apportion_parts(weights: np.ndarray, nparts: int) -> np.ndarray:
    """Largest-remainder apportionment of ``nparts`` part slots over
    components proportional to their ``weights``.

    Returns ``(ncomp,)`` integer slot counts summing to ``nparts``.
    Zero-slot components are legal (they get packed onto existing
    parts); a component never receives more slots than callers can
    fill (that cap is applied by the caller, which knows sizes).
    """
    weights = np.asarray(weights, dtype=np.float64)
    total = float(weights.sum())
    if total <= 0:
        weights = np.ones_like(weights)
        total = float(weights.sum())
    quota = weights * (nparts / total)
    base = np.floor(quota).astype(np.int64)
    rem = nparts - int(base.sum())
    if rem > 0:
        frac = quota - base
        # Stable: ties broken by component index.
        order = np.argsort(-frac, kind="stable")
        base[order[:rem]] += 1
    return base


def weighted_contiguous_cuts(weights: np.ndarray, nparts: int) -> np.ndarray:
    """Split a weight sequence into ``nparts`` contiguous non-empty
    chunks of roughly equal weight.

    Returns the ``(nparts,)`` chunk label of every element.  Cut points
    target the cumulative-weight quantiles, then are repaired to be
    strictly increasing so every chunk keeps at least one element —
    heavy-tailed weights cannot silently produce empty parts.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = len(weights)
    if nparts > n:
        raise ValueError(
            f"cannot cut {n} elements into {nparts} non-empty chunks"
        )
    labels = np.zeros(n, dtype=np.int32)
    if nparts <= 1:
        return labels
    csum = np.cumsum(np.maximum(weights, 0.0))
    total = float(csum[-1])
    if total <= 0:
        csum = np.arange(1, n + 1, dtype=np.float64)
        total = float(n)
    bounds = np.searchsorted(
        csum, total * np.arange(1, nparts) / nparts, side="left"
    ).astype(np.int64)
    # Repair to strictly increasing within [d+1, n-(nparts-1-d)], so
    # each chunk (including the last) keeps >= 1 element.  With
    # lo[d] = d+1 the feasible band has constant width n - nparts, so
    # "strictly increasing bounds" == "non-decreasing bounds - lo".
    lo = np.arange(1, nparts, dtype=np.int64)
    slack = np.maximum.accumulate(np.maximum(bounds - lo, 0))
    bounds = np.minimum(slack, n - nparts) + lo
    prev = 0
    for d, b in enumerate(bounds):
        labels[prev:b] = d
        prev = int(b)
    labels[prev:] = nparts - 1
    return labels


def block_partition(
    n: int, nparts: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """Last-resort contiguous block split in index order.

    Ignores adjacency entirely: vertices ``[0, n)`` are cut into
    ``nparts`` contiguous runs, weight-balanced when ``weights`` is
    given, count-balanced otherwise.  Always contract-clean on labels
    and non-emptiness; balance is best-effort.
    """
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    return weighted_contiguous_cuts(weights, nparts)
