"""Partition post-processing: reconnecting fragmented parts.

The paper's conclusion: multi-constraint partitioners "tend to create
disconnected subdomains that increase the number of domain borders
and, thus, the number of communications and tasks"; the authors
"intend to develop post-processing techniques to minimize the
artifacts produced by partitioners when constrained by many criteria".

This module implements that post-processing pass:

1. find every part's connected components;
2. keep each part's *dominant* component (largest constraint weight);
3. greedily reassign every stray component to the neighbouring part
   that (a) keeps every constraint within the balance tolerance and
   (b) gains the most edge weight (largest cut reduction), preferring
   moves that merge the fragment into a part it already touches.

The pass trades a bounded amount of constraint imbalance for
connectivity (and hence communication volume); the ablation benchmark
quantifies the trade on the MC_TL partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph
from .metrics import edge_cut, imbalance, part_component_labels, part_weights

__all__ = ["ReconnectResult", "part_components", "reconnect_parts"]

#: Largest share of its part a fragment may hold and still be moved.
MAX_FRAGMENT_FRACTION = 0.25


@dataclass
class ReconnectResult:
    """Outcome of :func:`reconnect_parts`.

    Attributes
    ----------
    part:
        The repaired partition labels.
    moved_vertices:
        Number of vertices reassigned.
    fragments_before / fragments_after:
        Count of non-dominant components before/after the pass.
    cut_before / cut_after:
        Edge cut before/after.
    imbalance_before / imbalance_after:
        Worst per-constraint imbalance before/after.
    """

    part: np.ndarray
    moved_vertices: int
    fragments_before: int
    fragments_after: int
    cut_before: float
    cut_after: float
    imbalance_before: float
    imbalance_after: float


def part_components(g: CSRGraph, part: np.ndarray, nparts: int) -> list[list[np.ndarray]]:
    """Connected components of every part's induced subgraph.

    Returns, per part, the list of component vertex arrays (ascending
    vertex ids) sorted by descending total (summed over constraints)
    weight, ties broken by smallest vertex — the first entry is the
    dominant component.
    """
    labels, ncomp = part_component_labels(g, part)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=ncomp))
    out: list[list[np.ndarray]] = [[] for _ in range(nparts)]
    for start, stop in zip(np.r_[0, ends[:-1]], ends):
        comp = order[start:stop]
        out[part[comp[0]]].append(comp)
    for p in range(nparts):
        out[p].sort(key=lambda c: -float(g.vwgt[c].sum()))
    return out


def reconnect_parts(
    g: CSRGraph,
    part: np.ndarray,
    nparts: int,
    *,
    imbalance_tol: float = 1.20,
) -> ReconnectResult:
    """Reassign stray components to adjacent parts.

    Parameters
    ----------
    imbalance_tol:
        Per-constraint balance ceiling the pass must respect when
        absorbing fragments; fragments whose absorption would violate
        it everywhere stay put (connectivity is best-effort).  A
        "fragment" holding more than :data:`MAX_FRAGMENT_FRACTION` of
        its part's weight is never moved (it is half the part, not an
        artifact).

    Returns
    -------
    :class:`ReconnectResult` with the repaired labels and before/after
    statistics.
    """
    part = np.array(part, dtype=np.int32, copy=True)
    total = g.total_vwgt()
    target = total / nparts  # uniform targets

    comps = part_components(g, part, nparts)
    fragments_before = sum(max(0, len(c) - 1) for c in comps)
    cut_before = edge_cut(g, part)
    imb_before = float(imbalance(g, part, nparts).max())

    pw = part_weights(g, part, nparts)
    moved = 0

    # Process fragments smallest-first so large repairs see updated
    # weights.
    fragments: list[tuple[int, np.ndarray]] = []
    for p in range(nparts):
        for comp in comps[p][1:]:
            fragments.append((p, comp))
    fragments.sort(key=lambda t: float(g.vwgt[t[1]].sum()))

    for p, comp in fragments:
        w = g.vwgt[comp].sum(axis=0)
        part_total = pw[p].sum()
        if part_total > 0 and w.sum() > MAX_FRAGMENT_FRACTION * part_total:
            continue
        # Edge weight from the fragment toward each neighbouring part.
        gain = np.zeros(nparts, dtype=np.float64)
        inside = np.zeros(g.num_vertices, dtype=bool)
        inside[comp] = True
        for v in comp:
            nbrs = g.neighbors(v)
            wts = g.edge_weights(v)
            for u, wt in zip(nbrs, wts):
                if not inside[u]:
                    gain[part[u]] += wt
        gain[p] = -np.inf  # must leave its own (disconnected) part
        order = np.argsort(-gain)
        for q in order:
            if gain[q] <= 0 or q == p:
                break
            new_q = pw[q] + w
            ok = True
            for c in range(g.ncon):
                if target[c] <= 0:
                    continue
                if new_q[c] / target[c] > imbalance_tol:
                    ok = False
                    break
            if ok:
                part[comp] = q
                pw[q] += w
                pw[p] -= w
                moved += len(comp)
                break

    comps_after = part_components(g, part, nparts)
    return ReconnectResult(
        part=part,
        moved_vertices=moved,
        fragments_before=fragments_before,
        fragments_after=sum(max(0, len(c) - 1) for c in comps_after),
        cut_before=cut_before,
        cut_after=edge_cut(g, part),
        imbalance_before=imb_before,
        imbalance_after=float(imbalance(g, part, nparts).max()),
    )
