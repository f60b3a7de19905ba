"""Every ``repro`` subpackage imports as the first ``repro`` import of a
fresh interpreter.

The rest of the suite cannot see an import cycle between subpackages:
``conftest`` and earlier test modules have already imported most of
the package, in an order that happens to work.  Here each subpackage
gets an interpreter of its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBPACKAGES = sorted(
    p.parent.name for p in (SRC / "repro").glob("*/__init__.py")
)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first_in_a_fresh_interpreter(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr.strip().splitlines()[-1:]
