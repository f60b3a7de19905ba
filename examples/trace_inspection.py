#!/usr/bin/env python3
"""Trace export and inspection workflow.

Simulates one iteration under both strategies, exports the traces to
JSON/CSV/Paje (the ViTE-compatible format used around StarPU, the
paper's runtime), and prints a per-subiteration occupancy analysis —
the numbers behind the Gantt charts.

Run:  python examples/trace_inspection.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro.experiments.common import run_flusim
from repro.flusim.export import write_csv, write_json, write_paje


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("traces")
    out_dir.mkdir(parents=True, exist_ok=True)

    for strategy in ("SC_OC", "MC_TL"):
        rec = run_flusim("cylinder", 32, 8, 8, strategy, scale=9)
        dag, trace, metrics = rec.dag, rec.trace, rec.metrics
        base = out_dir / f"cylinder_{strategy.lower()}"
        write_json(trace, dag, base.with_suffix(".json"))
        write_csv(trace, dag, base.with_suffix(".csv"))
        write_paje(trace, dag, base.with_suffix(".paje"))
        print(f"{strategy}: exported {base}.{{json,csv,paje}}")

        # Per-subiteration occupancy: busy core-time over the
        # subiteration's wall-clock window, per process.
        t = dag.tasks
        nsub = int(t.subiteration.max()) + 1
        print(f"  makespan {metrics.makespan:.0f}, efficiency "
              f"{metrics.efficiency:.2f}")
        print("  subiteration:  " + "  ".join(f"{s:>6d}" for s in range(nsub)))
        busy = np.zeros(nsub)
        span = np.zeros(nsub)
        for s in range(nsub):
            sel = t.subiteration == s
            if not sel.any():
                continue
            busy[s] = (trace.end[sel] - trace.start[sel]).sum()
            span[s] = trace.end[sel].max() - trace.start[sel].min()
        occ = busy / np.maximum(span * trace.num_processes
                                * trace.cores_per_process, 1e-300)
        print("  occupancy:     " + "  ".join(f"{o:6.2f}" for o in occ))
        print()

    print(
        "Open the .paje files with ViTE (vite <file>) for the same "
        "Gantt views as the paper's figures; the .csv loads directly "
        "into pandas."
    )


if __name__ == "__main__":
    main()
