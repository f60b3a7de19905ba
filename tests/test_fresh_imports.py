"""What a fresh interpreter imports.

The rest of the suite cannot see an import cycle between subpackages,
nor what a command loads: ``conftest`` and earlier test modules have
already imported most of the package, in an order that happens to
work.  Here each case gets an interpreter of its own:

* every ``repro`` subpackage imports as the first ``repro`` import;
* the serve control plane (the daemon, the client, ``serve status``
  and ``gc``) loads neither NumPy nor any compute module;
* the daemon's forkserver preload holds every module a job child
  imports, so no child imports per job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBPACKAGES = sorted(
    p.parent.name for p in (SRC / "repro").glob("*/__init__.py")
)

#: Modules the serve control plane must never load.
COMPUTE = ("mesh", "graph", "partitioning", "taskgraph", "flusim", "solver")


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_first_in_a_fresh_interpreter(name):
    out = _run(["-c", f"import repro.{name}"])
    assert out.returncode == 0, out.stderr.strip().splitlines()[-1:]


def _is_compute(module: str) -> bool:
    parts = module.split(".")
    return parts[0] == "numpy" or (
        parts[0] == "repro" and len(parts) > 1 and parts[1] in COMPUTE
    )


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import repro.service.daemon"],
        ["-c", "import repro.service.client"],
        ["-m", "repro", "serve", "status", "--spool", "{spool}"],
        ["-m", "repro", "gc", "--spool", "{spool}", "--dry-run"],
    ],
    ids=["daemon", "client", "serve-status", "gc"],
)
def test_control_plane_loads_no_compute_module(args, tmp_path):
    # ``-X importtime`` names every module the interpreter loads, the
    # ones a command loads inside its functions included.
    args = [a.format(spool=tmp_path / "spool") for a in args]
    out = _run(["-X", "importtime", *args])
    assert out.returncode == 0, out.stderr.strip().splitlines()[-1:]
    loaded = [
        line.rsplit("|", 1)[1].strip()
        for line in out.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro" in loaded
    assert [m for m in loaded if _is_compute(m)] == []


PRELOAD_PROBE = """
import json, os, sys
from importlib import import_module
from repro.service import daemon
from repro.service.queue import JobRequest

for name in daemon._PRELOAD:
    import_module(name)
before = set(sys.modules)
work, store = sys.argv[1], sys.argv[2]
request = JobRequest(
    "characteristics", {"scale": 6, "domains": 8, "processes": 2, "cores": 2}
)
job = {"request": request.to_dict(), "workdir": work, "kill_after": None}
daemon._child_main(
    [job], store, os.path.join(work, "pressure.json"), dict(os.environ), 0.0
)
new = sorted(
    m for m in set(sys.modules) - before
    if m.split(".")[0] in ("repro", "numpy")
)
print(json.dumps({"new": new, "result": os.listdir(work)}))
"""


def test_forkserver_preload_holds_every_module_a_job_imports(tmp_path):
    """The forkserver skips a preload name that fails to import, and a
    job child imports whatever the preload lacks on every job: neither
    shows but as time.  One ``characteristics`` chain run through
    :func:`~repro.service.daemon._child_main` after the preload must
    import no ``repro`` or NumPy module."""
    work = tmp_path / "work"
    work.mkdir()
    out = _run(["-c", PRELOAD_PROBE, str(work), str(tmp_path / "store")])
    assert out.returncode == 0, out.stderr.strip().splitlines()[-3:]
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    assert "result.json" in probe["result"], probe
    assert probe["new"] == []
