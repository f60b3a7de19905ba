"""Child-side probe for ``tests/test_serve_warm.py``.

Unpickling the probe imports this module inside a child forked from
the serve daemon's preloaded server, so it imports nothing a job child
would not already hold: standard library only at module level,
``repro`` only inside the function and after the snapshot.
"""

from __future__ import annotations

import json
import sys


def run_batch_reporting_imports(report_path: str, child_args: tuple) -> None:
    """Run one batch as a job child would and write which modules it
    had to import on top of what the fork came with."""
    before = set(sys.modules)
    from repro.service.daemon import _child_main

    _child_main(*child_args)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "preloaded": "repro.pipeline" in before,
                "new": sorted(set(sys.modules) - before),
            },
            fh,
        )
