"""Golden output hashes: what "bit-identical" means in a build.

Two files, each recomputed by a tier-1 test that fails on any changed
hash.  Regenerate — only when a change is *meant* to move an output,
and say so in CHANGES.md — with::

    PYTHONPATH=src python tests/golden/regen.py [labels] [chain]

(no argument rewrites both).

``partition_labels.json`` (``tests/test_golden_labels.py``) holds, per
case, the sha256 of the partition labels (and ``repr`` of the
simulated makespan where a schedule is run).  Cases: the six
``paper_chains`` scenarios at seed 3000 (bench seed 3, pass 0), the
``scale_chain`` scenario at its quick scale, and one area-weighted
dual graph partitioned directly (seed 4: the first seed on which no
bisection reaches ``rebalance`` uncut — before PR 23 ``_degrees`` came
back int64 there and ``rebalance`` truncated non-integer degree
updates, so those labels were an accident, not a reference).  That
case's key still says ``narrowed``: it was first stored int32/float32,
and the one int64/float64 format gives the same labels.

``chain_outputs.json`` (``tests/test_golden_chain.py``) pins the
stages whose second implementation is gone, by their outputs (never by
stage digests, which embed ``__version__``):

* ``mesh/…`` — every array of the four ``MESH_FACTORIES`` meshes at
  depths 5/7/9 and of the octree cylinder (plus its 3D centres) at
  depths 5–7.  Generated where the dict-of-tuples mesh engines still
  existed and gave the same hashes;
* ``dual/…`` — ``xadj``/``adjncy``/``adjwgt`` of the depth-7 duals,
  unit and area weights (keys end in ``int64``, the one storage
  format);
* ``chain/…`` — task-graph edges and costs and the simulated trace's
  ``start``/``end``/``worker`` for the four registry scenarios;
* ``solver/<strategy>/<scheme>`` — ``(U, acc, Ustar, acc2)`` after two
  serial :meth:`TaskDistributedSolver.run_iteration` calls from a blast
  wave, on the ``nozzle_validation`` scenario at scale
  ``SOLVER_SCALE``, per strategy and integration scheme (the solver
  tier behind Figs 5 and 13).
"""

from __future__ import annotations

import hashlib
import json
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

PATH = Path(__file__).with_name("partition_labels.json")
CHAIN_PATH = Path(__file__).with_name("chain_outputs.json")

SEED = 3000
#: (mesh, domains, processes, cores) — ``bench/paper_chains.py::CLUSTERS``.
CLUSTERS = (
    ("cylinder", 16, 16, 32),
    ("cube", 16, 16, 32),
    ("pprime_nozzle", 12, 6, 4),
)
STRATEGIES = ("SC_OC", "MC_TL")

MESH_DEPTHS = (5, 7, 9)
OCTREE_DEPTHS = (5, 6, 7)
DUAL_DEPTH = 7
DUAL_VARIANTS = ("unit", "area")
SOLVER_SCALE = 7
SOLVER_SCHEMES = ("euler", "heun")


def _sha(a: np.ndarray) -> str:
    labels = np.ascontiguousarray(a, dtype=np.int64)
    return hashlib.sha256(labels.tobytes()).hexdigest()


def _sha_arrays(*arrays: np.ndarray) -> str:
    """One hash over several arrays, dtype and shape included."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def mesh_arrays(mesh) -> list[np.ndarray]:
    """Every data field of a :class:`~repro.mesh.structures.Mesh`."""
    return [
        getattr(mesh, f.name)
        for f in fields(mesh)
        if not f.name.startswith("_")
    ]


def mesh_hashes(
    depths=MESH_DEPTHS, octree_depths=OCTREE_DEPTHS
) -> dict[str, str]:
    """``mesh/<name>/depth<d>`` → hash of the mesh's arrays."""
    from repro.mesh import MESH_FACTORIES
    from repro.mesh.octree import octree_cylinder_mesh

    out = {}
    for name, factory in MESH_FACTORIES.items():
        for d in depths:
            mesh = factory(max_depth=d)
            out[f"mesh/{name}/depth{d}"] = _sha_arrays(*mesh_arrays(mesh))
    for d in octree_depths:
        mesh, centers3 = octree_cylinder_mesh(max_depth=d)
        out[f"mesh/octree_cylinder/depth{d}"] = _sha_arrays(
            *mesh_arrays(mesh), centers3
        )
    return out


def dual_graph(mesh, edge_weight: str, vwgt=None):
    """The mesh's dual graph, its edges weighted by face count
    (``"unit"``, :func:`repro.mesh.dual.mesh_to_dual_graph`) or by face
    area (``"area"``), streamed in ``DEFAULT_CHUNK_FACES`` windows."""
    from repro.graph import CSRGraph
    from repro.mesh import dual

    xadj, adjncy, adjwgt = dual._streaming_adjacency(
        mesh, edge_weight=edge_weight, chunk_faces=dual.DEFAULT_CHUNK_FACES
    )
    return CSRGraph(xadj, adjncy, vwgt=vwgt, adjwgt=adjwgt)


def dual_key(name: str, edge_weight: str) -> str:
    return f"dual/{name}/depth{DUAL_DEPTH}/{edge_weight}/int64"


def dual_hashes() -> dict[str, str]:
    """``dual/…`` → hash of ``(xadj, adjncy, adjwgt)``."""
    from repro.mesh import MESH_FACTORIES

    out = {}
    for name, factory in MESH_FACTORIES.items():
        mesh = factory(max_depth=DUAL_DEPTH)
        for edge_weight in DUAL_VARIANTS:
            g = dual_graph(mesh, edge_weight)
            out[dual_key(name, edge_weight)] = _sha_arrays(
                g.xadj, g.adjncy, g.adjwgt
            )
    return out


def chain_hashes() -> dict[str, str]:
    """``chain/<scenario>/{dag,trace}`` for the registry scenarios."""
    from repro.pipeline import ArtifactStore, Pipeline
    from repro.pipeline.registry import SCENARIOS

    out = {}
    pipe = Pipeline(ArtifactStore(None), n_jobs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # partition-quality provenance
        for name, sc in sorted(SCENARIOS.items()):
            rec = pipe.run(sc)
            out[f"chain/{name}/dag"] = _sha_arrays(
                rec.dag.edges, rec.dag.tasks.cost
            )
            out[f"chain/{name}/trace"] = _sha_arrays(
                rec.trace.start, rec.trace.end, rec.trace.worker
            )
    return out


def solver_hashes() -> dict[str, str]:
    """``solver/<strategy>/<scheme>`` → hash of the state after two
    serial task-graph iterations."""
    from repro.pipeline import ArtifactStore, Pipeline
    from repro.pipeline.registry import get_scenario
    from repro.solver import LTSState, TaskDistributedSolver, blast_wave
    from repro.solver.timestep import stable_timesteps

    out = {}
    pipe = Pipeline(ArtifactStore(None), n_jobs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # partition-quality provenance
        for strategy in STRATEGIES:
            for scheme in SOLVER_SCHEMES:
                rec = pipe.run(
                    get_scenario(
                        "nozzle_validation",
                        strategy=strategy,
                        scale=SOLVER_SCALE,
                        scheme=scheme,
                    ),
                    through="taskgraph",
                )
                U0 = blast_wave(rec.mesh)
                dt_min = float(
                    (stable_timesteps(rec.mesh, U0) / np.exp2(rec.tau)).min()
                )
                solver = TaskDistributedSolver(
                    rec.mesh, rec.tau, rec.decomp, dt_min,
                    dag=rec.dag, scheme=scheme,
                )
                state = LTSState(U0)
                solver.run(state, 2)
                out[f"solver/{strategy}/{scheme}"] = _sha_arrays(
                    state.U, state.acc, state.Ustar, state.acc2
                )
    return out


def compute_chain() -> dict[str, str]:
    """Every ``chain_outputs.json`` entry, recomputed from scratch."""
    return {
        **mesh_hashes(), **dual_hashes(), **chain_hashes(), **solver_hashes()
    }


def compute() -> dict[str, dict[str, str]]:
    """Every golden case, recomputed from scratch (≈5 s)."""
    from repro.graph import partition_graph
    from repro.partitioning.strategies import _level_indicator_matrix
    from repro.pipeline import ArtifactStore, Pipeline, Scenario

    out: dict[str, dict[str, str]] = {}
    pipe = Pipeline(ArtifactStore(None))
    scenarios = {
        f"paper/{mesh}/{st}/seed{SEED}": Scenario.standard(
            mesh, dom, proc, cores, strategy=st, seed=SEED
        )
        for mesh, dom, proc, cores in CLUSTERS
        for st in STRATEGIES
    }
    scenarios[f"scale/cylinder/scale10/MC_TL/8/seed{SEED}"] = Scenario.standard(
        "cylinder", 8, 8, 4, strategy="MC_TL", scale=10, seed=SEED
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # partition-quality provenance
        for name, sc in scenarios.items():
            rec = pipe.run(sc)
            out[name] = {
                "labels": _sha(rec.decomp.domain),
                "makespan": repr(float(rec.metrics.makespan)),
            }
        # Weighted finest level (FM's heap queue).
        g = dual_graph(rec.mesh, "area", vwgt=_level_indicator_matrix(rec.tau))
        res = partition_graph(g, 8, seed=4)
    out["narrowed/cylinder/scale10/area/8/seed4"] = {"labels": _sha(res.part)}
    return out


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    which = set(sys.argv[1:]) or {"labels", "chain"}
    if "labels" in which:
        _write(PATH, compute())
    if "chain" in which:
        _write(CHAIN_PATH, compute_chain())
