"""Golden partition-label hashes: what "bit-identical" means in a build.

``partition_labels.json`` holds, per case, the sha256 of the partition
labels (and ``repr`` of the simulated makespan where a schedule is
run).  ``tests/test_golden_labels.py`` recomputes every case and fails
on any changed hash.  Regenerate — only when a change is *meant* to
move labels, and say so in CHANGES.md — with::

    PYTHONPATH=src python tests/golden/regen.py

Cases: the six ``paper_chains`` scenarios at seed 3000 (bench seed 3,
pass 0), the ``scale_chain`` scenario at its quick scale, and one
int32/float32-narrowed, area-weighted dual graph partitioned directly
(seed 4: the first seed on which no bisection reaches ``rebalance``
uncut — before PR 23 ``_degrees`` came back int64 there and
``rebalance`` truncated non-integer degree updates, so those labels
were an accident, not a reference).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

PATH = Path(__file__).with_name("partition_labels.json")

SEED = 3000
#: (mesh, domains, processes, cores) — ``bench/paper_chains.py::CLUSTERS``.
CLUSTERS = (
    ("cylinder", 16, 16, 32),
    ("cube", 16, 16, 32),
    ("pprime_nozzle", 12, 6, 4),
)
STRATEGIES = ("SC_OC", "MC_TL")


def _sha(a: np.ndarray) -> str:
    labels = np.ascontiguousarray(a, dtype=np.int64)
    return hashlib.sha256(labels.tobytes()).hexdigest()


def compute() -> dict[str, dict[str, str]]:
    """Every golden case, recomputed from scratch (≈5 s)."""
    from repro.graph import partition_graph
    from repro.mesh.dual import mesh_to_dual_graph
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
        # Narrowed storage, weighted finest level (FM's heap queue).
        g = mesh_to_dual_graph(
            rec.mesh,
            vwgt=_level_indicator_matrix(rec.tau).astype(np.float32),
            edge_weight="area",
            index_dtype=np.int32,
            weight_dtype=np.float32,
        )
        res = partition_graph(g, 8, seed=4)
    assert g.adjncy.dtype == np.int32 and g.adjwgt.dtype == np.float32
    out["narrowed/cylinder/scale10/area/8/seed4"] = {"labels": _sha(res.part)}
    return out


if __name__ == "__main__":
    PATH.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
