"""Shared plumbing of the benchmark: spans, checks, statistics, temp dirs.

Everything here measures the program *from outside*: a span is opened
by benchmark code around a call it makes into a ``src/repro`` layer,
never by code inside the layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: Scratch root.  Inside the checkout (and git-ignored) because the
#: benchmark may read and write nowhere else.
WORK_ROOT = REPO_ROOT / ".bench_work"


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the one declaration of workload and metric
    names, units and bounds."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob and point children at ``src/``.

    The benchmark measures the program's defaults; a knob left in the
    caller's shell (``REPRO_N_JOBS``, ``REPRO_ARTIFACTS``, ...) would
    silently change what is measured, in this process and in every
    child it spawns.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(SRC_DIR)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def quiet_quality_warnings() -> None:
    """Keep the partitioner's fallback announcements off stderr: the
    traced pass counts them (``graph.fallback_count``), and printed
    once per chain they bury real errors."""
    from repro.graph import PartitionQualityWarning

    warnings.filterwarnings("ignore", category=PartitionQualityWarning)


# ---------------------------------------------------------------------
# statistics


def mean(values: list[float]) -> float:
    """The mean of timings taken all across one invocation.

    Shared hosts run in speed modes: the reference host's cores
    alternate, for seconds to minutes at a time, between two speeds
    27 % apart (process CPU time moves with the wall, so it is the
    core that is slower, not the process that is descheduled).  A
    median — or a minimum — of a handful of timings lands in one mode
    or the other from run to run; a mean over samples spread across
    the whole invocation moves smoothly with the share of it spent in
    each mode, and that share is what differs least between runs.
    Every workload therefore interleaves its cold, warm and set-up
    measurements pass by pass and reports means over the passes.
    """
    return float(statistics.fmean(values)) if values else 0.0


def mean_of_medians(batches: list[list[float]]) -> float:
    """For millisecond operations sampled in batches across the
    invocation: the median inside a batch sheds the stray slow sample
    (a page-cache miss is 50× a 0.1 ms status read), the mean over
    batches keeps the smooth behaviour of :func:`mean`."""
    return mean([median(b) for b in batches if b])


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


#: What one :func:`reference_op` is counted as: its cost on the
#: reference host in its usual mode.  A declared constant — change it,
#: or the op, and every yardstick-scaled number changes with it.
REFERENCE_OP_MS = 0.03

_REFERENCE_PAYLOAD = {
    "mesh": "cylinder",
    "scale": 12,
    "domains": 8,
    "processes": 8,
    "cores": 4,
    "strategy": "MC_TL",
    "seed": 1,
    "weights": [1, 2, 3, 4.5],
}


def reference_op() -> dict[str, int]:
    """A fixed piece of interpreter work — canonical JSON, SHA-256, dict
    inserts, the mix of a store-key computation — that touches nothing
    under ``src/``: the yardstick of :func:`yardstick_ms`."""
    out = {}
    for i in range(6):
        text = json.dumps(_REFERENCE_PAYLOAD, sort_keys=True)
        out[hashlib.sha256(text.encode()).hexdigest() + str(i)] = i
    return out


def yardstick_ms(
    op_batch_s: list[float], reference_batch_s: list[float]
) -> float:
    """Host-speed-normalised milliseconds of a 0.1 ms interpreter-bound
    operation, from batches of it timed back to back with equal-count
    batches of :func:`reference_op`.

    On the reference host such an operation costs 0.09–0.25 ms from
    one 20 ms batch to the next (the speed modes of :func:`mean` hit
    interpreter-bound code twice as hard as NumPy-bound code), and no
    amount of sampling inside one invocation averages that out: means
    over 3 × 3 s still differ by 25 %.  The reference batch beside it
    slows down by the same factor at the same moment, so the ratio of
    the two repeats to < 1 %.  Reported is the median ratio times
    :data:`REFERENCE_OP_MS`: the operation's cost on a host that runs
    the reference op in exactly 30 µs.
    """
    ratios = [a / b for a, b in zip(op_batch_s, reference_batch_s)]
    return median(ratios) * REFERENCE_OP_MS


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    """Lifetime RSS high-water in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# ---------------------------------------------------------------------
# correctness gate


@dataclass
class Checks:
    """Counts every operation attempted and every one that failed or
    produced an incorrect output; a failure never raises, so one bad
    output cannot hide the next."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def absorb(self, other: dict[str, Any]) -> None:
        """Fold in the counts a child process reported."""
        self.attempted += int(other["attempted"])
        self.failed += int(other["failed"])
        self.messages.extend(other.get("messages", []))

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# ---------------------------------------------------------------------
# spans


@dataclass
class Span:
    id: int
    name: str
    layer: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    A disabled tracer records nothing, so the same workload code runs
    traced and untraced.  Spans nest by a per-tracer stack; the
    benchmark opens spans from one thread only.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run = ""

    @contextlib.contextmanager
    def span(
        self, name: str, layer: str, **counts: float
    ) -> Iterator[dict[str, float]]:
        """Time the body as one span; the yielded dict takes counts
        known only after the call (cells, edges, bytes)."""
        if not self.enabled:
            yield {}
            return
        parent = self._stack[-1].id if self._stack else None
        sp = Span(
            id=len(self.spans),
            name=name,
            layer=layer,
            run=self.run,
            parent=parent,
            start=0.0,
            counts=dict(counts),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        cpu0 = time.process_time()
        sp.start = time.perf_counter()
        try:
            yield sp.counts
        finally:
            sp.end = time.perf_counter()
            sp.cpu = time.process_time() - cpu0
            self._stack.pop()

    def add(
        self, name: str, layer: str, start: float, end: float, *, run: str
    ) -> None:
        """Record a span whose endpoints another process measured
        (already shifted onto this process's ``perf_counter`` clock)."""
        self.spans.append(
            Span(len(self.spans), name, layer, run, None, start, end)
        )

    def extend(
        self, spans: list[dict[str, Any]], run: str | None = None
    ) -> None:
        """Adopt spans recorded elsewhere — a child process, another
        tracer — re-basing their ids; ``run`` relabels them."""
        base = len(self.spans)
        for d in spans:
            sp = Span(**d)
            sp.id += base
            if sp.parent is not None:
                sp.parent += base
            if run is not None:
                sp.run = run
            self.spans.append(sp)

    # -- queries -------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0.0) for s in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus the part
        its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - child[s.id]
        return out

    # -- export --------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        return [asdict(s) for s in self.spans]

    def write(self, prefix: str) -> list[str]:
        """``<prefix>.jsonl`` (one span a line) and
        ``<prefix>.chrome.json`` (chrome://tracing / Perfetto)."""
        jsonl = prefix + ".jsonl"
        chrome = prefix + ".chrome.json"
        with open(jsonl, "w", encoding="utf-8") as fh:
            for d in self.to_dicts():
                fh.write(json.dumps(d, sort_keys=True) + "\n")
        runs = {
            r: i
            for i, r in enumerate(dict.fromkeys(s.run for s in self.spans))
        }
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": runs[s.run],
                "tid": 0,
                "args": {"run": s.run, "cpu_s": s.cpu, **s.counts},
            }
            for s in self.spans
        ]
        with open(chrome, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)
        return [jsonl, chrome]


# ---------------------------------------------------------------------
# run context


@dataclass
class Context:
    """What one workload invocation is given."""

    seed: int
    seconds: float
    quick: bool
    tracer: Tracer
    checks: Checks = field(default_factory=Checks)

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def untraced(self) -> "Context":
        """The same invocation with spans off (checks still shared)."""
        return Context(
            self.seed, self.seconds, self.quick, Tracer(False), self.checks
        )

    def repeats(self, nominal_s: float) -> int:
        """How many passes of ``nominal_s`` seconds fill ``--seconds``.

        A fixed function of the arguments, not of the clock: counts
        and simulated makespans then repeat exactly for a fixed seed.
        A traced or ``--quick`` run makes one pass.
        """
        if self.quick or self.traced:
            return 1
        return max(1, round(self.seconds / nominal_s))


@contextlib.contextmanager
def temp_dir(tag: str) -> Iterator[Path]:
    """A scratch directory under :data:`WORK_ROOT`, always removed."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only succeeds once the last user left


@dataclass
class Metric:
    """One reported number with the sample count behind it."""

    value: float
    n: int = 1


def time_import_repro() -> float:
    """Seconds a fresh interpreter needs to start and import the
    pipeline — what a user pays before the first in-process chain."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.pipeline"],
        check=True,
        timeout=120,
    )
    return time.perf_counter() - t0
