"""Extension study — the full production loop with adaptive meshing.

Production CFD campaigns adapt the mesh to the solution; temporal
levels and partitions must follow.  This study runs the complete loop
the paper's machinery lives inside:

    solve k iterations → adapt mesh to the density front →
    transfer the state conservatively → re-derive levels →
    re-partition → continue

and checks that (a) refinement tracks the expanding blast front,
(b) the conservative transfer loses nothing, and (c) MC_TL keeps its
advantage on every adapted mesh generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..flusim import ClusterConfig, simulate
from ..mesh import (
    adapt_mesh,
    density_gradient_indicator,
    transfer_solution,
    uniform_mesh,
)
from ..partitioning import make_decomposition
from ..solver import LTSState, TaskDistributedSolver, blast_wave
from ..solver.lts import apply_cell_updates
from ..solver.timestep import stable_timesteps
from ..taskgraph import generate_task_graph
from ..temporal import levels_from_depth

__all__ = [
    "AdaptationCycle", "AdaptationStudyResult", "run", "report", "metrics",
    "CLAIMS",
]

#: The mesh refines around the front, the transfers conserve mass, and
#: MC_TL's advantage emerges with the level structure (parity first).
CLAIMS = (
    "last_num_cells > first_num_cells",
    "last_front_radius < 0.25",
    "last_mass_error < 1e-8",
    "abs(first_speedup - 1.0) < 0.2",
    "last_speedup > 1.2",
)


@dataclass
class AdaptationCycle:
    """Statistics of one adapt→solve cycle."""

    cycle: int
    num_cells: int
    front_radius: float  # radius of the finest-cell band
    mass_error: float  # relative, cumulative since start
    speedup: float  # FLUSIM SC_OC/MC_TL on this mesh generation


@dataclass
class AdaptationStudyResult:
    """Whole-campaign statistics."""

    cycles: list[AdaptationCycle] = field(default_factory=list)


def run(
    *,
    base_depth: int = 5,
    max_depth: int = 7,
    cycles: int = 3,
    iterations_per_cycle: int = 3,
    domains: int = 8,
    processes: int = 4,
    cores: int = 8,
    seed: int = 0,
) -> AdaptationStudyResult:
    """Run the adapt→solve campaign on an expanding blast wave."""
    mesh = uniform_mesh(depth=base_depth)
    U = blast_wave(mesh, radius=0.06, p_ratio=6.0)
    mass0 = float((U[:, 0] * mesh.cell_volumes).sum())
    cluster = ClusterConfig(processes, cores)
    result = AdaptationStudyResult()

    for cycle in range(cycles):
        # --- adapt to the current solution --------------------------------
        ind = density_gradient_indicator(mesh, U)
        new_mesh = adapt_mesh(
            mesh,
            ind,
            refine_threshold=0.01,
            coarsen_threshold=0.002,
            max_depth=max_depth,
            min_depth=base_depth - 1,
        )
        U = transfer_solution(mesh, new_mesh, U)
        mesh = new_mesh

        # --- levels, partitions, task graphs ------------------------------
        tau = levels_from_depth(mesh, num_levels=3)
        dt_min = float((stable_timesteps(mesh, U) / np.ldexp(1.0, tau)).min())
        spans = {}
        for strategy in ("SC_OC", "MC_TL"):
            decomp = make_decomposition(
                mesh, tau, domains, processes, strategy=strategy, seed=seed
            )
            dag = generate_task_graph(mesh, tau, decomp)
            spans[strategy] = simulate(dag, cluster, seed=seed).makespan
        # --- solve a few iterations on the MC_TL decomposition ------------
        decomp = make_decomposition(
            mesh, tau, domains, processes, strategy="MC_TL", seed=seed
        )
        solver = TaskDistributedSolver(mesh, tau, decomp, dt_min)
        state = LTSState(U)
        for _ in range(iterations_per_cycle):
            solver.run_iteration(state)
        # Fold outstanding accumulators into the state before the next
        # adaptation (the transfer only sees U).
        apply_cell_updates(mesh, state, np.arange(mesh.num_cells))
        U = state.U

        fine = mesh.cell_centers[mesh.cell_depth == mesh.cell_depth.max()]
        r = (
            float(
                np.median(
                    np.hypot(fine[:, 0] - 0.5, fine[:, 1] - 0.5)
                )
            )
            if len(fine)
            else 0.0
        )
        mass = float((U[:, 0] * mesh.cell_volumes).sum())
        result.cycles.append(
            AdaptationCycle(
                cycle=cycle,
                num_cells=mesh.num_cells,
                front_radius=r,
                mass_error=abs(mass - mass0) / mass0,
                speedup=spans["SC_OC"] / spans["MC_TL"],
            )
        )
    return result


def metrics(r: AdaptationStudyResult) -> dict[str, float]:
    """The first and last cycles' statistics."""
    return {
        f"{which}_{name}": value
        for which, cycle in (("first", r.cycles[0]), ("last", r.cycles[-1]))
        for name, value in vars(cycle).items()
    }


def report(r: AdaptationStudyResult) -> str:
    """Per-cycle table."""
    lines = [
        f"cycle {c.cycle}: {c.num_cells} cells, front radius "
        f"{c.front_radius:.3f}, cumulative mass error {c.mass_error:.2e}, "
        f"MC_TL speedup ×{c.speedup:.2f}"
        for c in r.cycles
    ]
    return "\n".join(lines)
