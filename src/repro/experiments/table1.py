"""Table I — test-mesh characteristics.

For each replica mesh: per-τ cell counts, %cells and %computation,
side by side with the paper's numbers for the original Airbus meshes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mesh import LevelStats, format_table1_row, level_statistics
from ..mesh.generators import PAPER_CELL_COUNTS, PAPER_CELL_FRACTIONS
from ..pipeline import Pipeline
from .common import standard_scenario

__all__ = ["Table1Result", "run", "report", "metrics", "CLAIMS"]

#: Every replica matches the paper's per-level shares within 6 (cells)
#: and 12 (computation) percentage points.
CLAIMS = (
    "cell_fraction_err_cylinder <= 0.06",
    "computation_fraction_err_cylinder <= 0.12",
    "cell_fraction_err_cube <= 0.06",
    "computation_fraction_err_cube <= 0.12",
    "cell_fraction_err_pprime_nozzle <= 0.06",
    "computation_fraction_err_pprime_nozzle <= 0.12",
)

#: Paper "%Computation" rows (per τ ascending) for reference.
PAPER_COMPUTATION_FRACTIONS = {
    "cylinder": np.array([0.044, 0.113, 0.432, 0.412]),
    "cube": np.array([0.097, 0.386, 0.004, 0.513]),
    "pprime_nozzle": np.array([0.284, 0.383, 0.333]),
}


@dataclass
class Table1Result:
    """Replica-vs-paper statistics for the three meshes."""

    names: list[str]
    replica_counts: dict[str, np.ndarray]
    replica_cell_fraction: dict[str, np.ndarray]
    replica_computation_fraction: dict[str, np.ndarray]
    paper_cell_fraction: dict[str, np.ndarray]
    paper_computation_fraction: dict[str, np.ndarray]
    paper_counts: dict[str, int]


def run(*, scale: int | None = None) -> Table1Result:
    """Compute Table I for the replica meshes."""
    names = ["cylinder", "cube", "pprime_nozzle"]
    counts, cf, wf = {}, {}, {}
    pipe = Pipeline()
    for name in names:
        mesh, tau = pipe.case(standard_scenario(name, scale=scale))
        st = level_statistics(mesh, tau)
        counts[name] = st.counts
        cf[name] = st.cell_fraction
        wf[name] = st.computation_fraction
    return Table1Result(
        names=names,
        replica_counts=counts,
        replica_cell_fraction=cf,
        replica_computation_fraction=wf,
        paper_cell_fraction=dict(PAPER_CELL_FRACTIONS),
        paper_computation_fraction=dict(PAPER_COMPUTATION_FRACTIONS),
        paper_counts=dict(PAPER_CELL_COUNTS),
    )


def metrics(result: Table1Result) -> dict[str, float]:
    """Per mesh: cells, the replica's %Cells and %Computation per τ,
    and the largest per-level distance to the paper's shares."""
    out: dict[str, float] = {}
    for name in result.names:
        out[f"cells_{name}"] = result.replica_counts[name].sum()
        for kind in ("cell", "computation"):
            replica = getattr(result, f"replica_{kind}_fraction")[name]
            paper = getattr(result, f"paper_{kind}_fraction")[name]
            for tau, share in enumerate(replica):
                out[f"{kind}_fraction_{name}_tau{tau}"] = share
            out[f"{kind}_fraction_err_{name}"] = (
                np.abs(replica - paper).max()
                if replica.shape == paper.shape
                else np.inf  # a level missing at this scale
            )
    return out


def report(result: Table1Result) -> str:
    """Render the replica Table I with paper reference rows."""
    blocks = []
    for name in result.names:
        counts = result.replica_counts[name]
        st = LevelStats(
            counts=counts,
            cell_fraction=result.replica_cell_fraction[name],
            computation_fraction=result.replica_computation_fraction[name],
            total_cells=int(counts.sum()),
        )
        block = [format_table1_row(name.upper(), st)]
        block.append(
            "paper %Cells "
            + "".join(
                f"  {100 * f:<9.1f}%" for f in result.paper_cell_fraction[name]
            )
            + f"   (original total {result.paper_counts[name]:,} cells)"
        )
        block.append(
            "paper %Comp  "
            + "".join(
                f"  {100 * f:<9.1f}%"
                for f in result.paper_computation_fraction[name]
            )
        )
        blocks.append("\n".join(block))
    return "\n\n".join(blocks)
