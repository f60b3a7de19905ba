"""Fig. 11 — behaviour vs the number of domains.

(a) Makespan ratio SC_OC/MC_TL for increasing domain counts: MC_TL
always wins (ratio > 1) and the ratio decreases for larger counts —
finer granularity lets pipelining partially hide SC_OC's imbalance.

(b) Estimated communication volume (task-graph edges crossing process
boundaries): MC_TL pays more communication, increasingly so with the
domain count, since balancing all levels breaks domain contiguity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flusim import taskgraph_comm_volume
from .common import run_flusim

__all__ = ["Fig11Result", "run", "report", "metrics", "CLAIMS"]

#: (a) MC_TL wins up to 128 domains and the 256-domain ratio lies below
#: the peak; (b) up to 128 domains MC_TL communicates more, at every
#: count and in aggregate, and volume grows with the count.
CLAIMS = tuple(
    claim
    for mesh in ("cylinder", "cube")
    for claim in (
        f"min_ratio_to_128_{mesh} > 1.0",
        f"ratio_{mesh}_256 < peak_ratio_{mesh}",
        f"min_comm_excess_to_128_{mesh} >= 0",
        f"comm_excess_to_128_{mesh} > 0",
        f"comm_sc_oc_{mesh}_128 > comm_sc_oc_{mesh}_16",
        f"comm_mc_tl_{mesh}_128 > comm_mc_tl_{mesh}_16",
    )
)


@dataclass
class Fig11Result:
    """Sweep series per mesh: ratios and communication volumes."""

    meshes: list[str]
    domain_counts: list[int]
    # mesh -> array over domain_counts
    ratio: dict[str, np.ndarray]  # makespan SC_OC / MC_TL (Fig 11a)
    comm_sc_oc: dict[str, np.ndarray]  # (Fig 11b)
    comm_mc_tl: dict[str, np.ndarray]


def run(
    *,
    meshes: tuple[str, ...] = ("cylinder", "cube"),
    domain_counts: tuple[int, ...] = (16, 32, 64, 128),
    processes: int = 16,
    cores: int = 32,
    scale: int | None = None,
    seed: int = 0,
) -> Fig11Result:
    """Sweep the domain count for both strategies and meshes."""
    ratio: dict[str, np.ndarray] = {}
    c_sc: dict[str, np.ndarray] = {}
    c_mc: dict[str, np.ndarray] = {}
    for name in meshes:
        rr, cs, cm = [], [], []
        for nd in domain_counts:
            rec_sc = run_flusim(
                name, nd, processes, cores, "SC_OC", scale=scale, seed=seed
            )
            rec_mc = run_flusim(
                name, nd, processes, cores, "MC_TL", scale=scale, seed=seed
            )
            rr.append(rec_sc.metrics.makespan / rec_mc.metrics.makespan)
            cs.append(taskgraph_comm_volume(rec_sc.dag))
            cm.append(taskgraph_comm_volume(rec_mc.dag))
        ratio[name] = np.array(rr)
        c_sc[name] = np.array(cs, dtype=np.int64)
        c_mc[name] = np.array(cm, dtype=np.int64)
    return Fig11Result(
        meshes=list(meshes),
        domain_counts=list(domain_counts),
        ratio=ratio,
        comm_sc_oc=c_sc,
        comm_mc_tl=c_mc,
    )


def metrics(r: Fig11Result) -> dict[str, float]:
    """Per mesh and domain count: the ratio and both comm volumes;
    per mesh: the peak ratio, and over counts up to 128 the smallest
    ratio and MC_TL's comm excess (smallest and summed)."""
    out: dict[str, float] = {}
    early = np.array(r.domain_counts) <= 128
    for name in r.meshes:
        ratio, sc, mc = r.ratio[name], r.comm_sc_oc[name], r.comm_mc_tl[name]
        for i, d in enumerate(r.domain_counts):
            out[f"ratio_{name}_{d}"] = ratio[i]
            out[f"comm_sc_oc_{name}_{d}"] = sc[i]
            out[f"comm_mc_tl_{name}_{d}"] = mc[i]
        out[f"peak_ratio_{name}"] = ratio.max()
        out[f"min_ratio_to_128_{name}"] = ratio[early].min()
        out[f"min_comm_excess_to_128_{name}"] = (mc - sc)[early].min()
        out[f"comm_excess_to_128_{name}"] = mc[early].sum() - sc[early].sum()
    return out


def report(r: Fig11Result) -> str:
    """Tabulate the sweep series."""
    lines = ["domains: " + "  ".join(f"{d:>6d}" for d in r.domain_counts)]
    for name in r.meshes:
        lines.append(
            f"{name:>9s} ratio SC_OC/MC_TL: "
            + "  ".join(f"{v:6.2f}" for v in r.ratio[name])
        )
        lines.append(
            f"{name:>9s} comm SC_OC: "
            + "  ".join(f"{v:6d}" for v in r.comm_sc_oc[name])
        )
        lines.append(
            f"{name:>9s} comm MC_TL: "
            + "  ".join(f"{v:6d}" for v in r.comm_mc_tl[name])
        )
    return "\n".join(lines)
