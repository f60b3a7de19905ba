"""The ``REPRO_*`` knob table (:mod:`repro.util.env`) and the readers
that go through it."""

from __future__ import annotations

import os
import re
import warnings
from pathlib import Path

import pytest

from repro.pipeline import ArtifactStore, default_cache_root
from repro.resilience.sentinel import SentinelConfig
from repro.service import QueueLimits
from repro.util.env import KNOBS, read
from repro.util.forkpool import resolve_n_jobs

ROOT = Path(__file__).resolve().parents[1]


def _sentinel_reader(field_name):
    return lambda: getattr(SentinelConfig.from_env(), field_name)


#: The public reader of each knob.
READERS = {
    "REPRO_ARTIFACTS": default_cache_root,
    "REPRO_ARTIFACTS_BUDGET": lambda: ArtifactStore().budget_bytes,
    "REPRO_STORE_CLAIM_TTL": lambda: ArtifactStore().claim_ttl,
    "REPRO_N_JOBS": resolve_n_jobs,
    "REPRO_SPOOL_MAX_PENDING": lambda: QueueLimits.from_env().max_pending,
    "REPRO_SPOOL_MAX_BYTES": lambda: QueueLimits.from_env().max_pending_bytes,
    # The daemon reads it through the table when an attempt starts.
    "REPRO_SERVE_STAGE_DELAY": lambda: read("REPRO_SERVE_STAGE_DELAY"),
    "REPRO_SENTINEL_MEM_SOFT": _sentinel_reader("mem_soft_bytes"),
    "REPRO_SENTINEL_MEM_HARD": _sentinel_reader("mem_hard_bytes"),
    "REPRO_SENTINEL_DISK_SOFT": _sentinel_reader("disk_soft_bytes"),
    "REPRO_SENTINEL_DISK_HARD": _sentinel_reader("disk_hard_bytes"),
}

#: Malformed and out-of-domain values for each domain.
INVALID = {
    "byte size": ["lots", "12Q", "inf", "nan", "1e400"],
    "integer": ["abc", "1.5", "nan", "inf"],
    "positive integer": ["abc", "1.5", "0", "-3"],
    "positive finite number of seconds": ["abc", "nan", "inf", "0", "-3"],
    "non-negative finite number of seconds": ["abc", "nan", "inf", "-3"],
}


def _documented_default(name):
    default = KNOBS[name].default
    if name == "REPRO_N_JOBS":
        return resolve_n_jobs(default)
    if name == "REPRO_ARTIFACTS":
        return Path("~/.cache/repro").expanduser()
    return default


@pytest.fixture
def clean_env(monkeypatch):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    return monkeypatch


def test_every_knob_has_a_reader():
    assert sorted(READERS) == sorted(KNOBS)
    assert len(KNOBS) == 11


@pytest.mark.parametrize(
    "name, raw",
    [
        (name, raw)
        for name, knob in KNOBS.items()
        if knob.domain != "path"
        for raw in INVALID[knob.domain]
    ],
    ids=lambda v: v,
)
def test_invalid_value_warns_once_and_reads_the_default(clean_env, name, raw):
    clean_env.setenv(name, raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = READERS[name]()
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1, [str(w.message) for w in runtime]
    message = str(runtime[0].message)
    assert message.startswith(f"invalid {name} value {raw!r} (")
    assert message.endswith("; using the default")
    assert got == _documented_default(name)


def test_unset_reads_the_defaults(clean_env):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, reader in READERS.items():
            assert reader() == _documented_default(name), name
        assert SentinelConfig.from_env() == SentinelConfig()
        assert QueueLimits.from_env() == QueueLimits()
        store = ArtifactStore()
        assert (store.lock_timeout, store.claim_ttl) == (600.0, 30.0)
    clean_env.setenv("REPRO_SENTINEL_DISK_SOFT", "   ")
    assert READERS["REPRO_SENTINEL_DISK_SOFT"]() == 512 * 2**20


@pytest.mark.parametrize(
    "name, raw, want",
    [
        ("REPRO_ARTIFACTS", " /srv/cache ", Path("/srv/cache")),
        ("REPRO_ARTIFACTS_BUDGET", "512M", 512 * 2**20),
        ("REPRO_ARTIFACTS_BUDGET", "0", None),
        ("REPRO_STORE_CLAIM_TTL", "2.5", 2.5),
        ("REPRO_N_JOBS", "3", 3),
        ("REPRO_N_JOBS", "0", 1),
        ("REPRO_N_JOBS", "-4", resolve_n_jobs(-1)),
        ("REPRO_SPOOL_MAX_PENDING", "7", 7),
        ("REPRO_SPOOL_MAX_BYTES", "1M", 2**20),
        ("REPRO_SERVE_STAGE_DELAY", "0", 0.0),
        ("REPRO_SERVE_STAGE_DELAY", "60", 60.0),
        ("REPRO_SENTINEL_MEM_HARD", "2G", 2 * 2**30),
        ("REPRO_SENTINEL_MEM_SOFT", "1048576", 2**20),
        ("REPRO_SENTINEL_DISK_SOFT", "0", None),
        ("REPRO_SENTINEL_DISK_HARD", "-1", None),
    ],
    ids=lambda v: str(v),
)
def test_valid_value_reads_without_warning(clean_env, name, raw, want):
    clean_env.setenv(name, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert READERS[name]() == want


def test_table_names_every_knob_in_src_and_readme():
    """Ratchet: a ``REPRO_*`` name used anywhere in ``src/`` is a table
    row, and README's Environment table lists exactly the rows."""
    used = set()
    for path in (ROOT / "src").rglob("*.py"):
        used.update(
            name
            for name in re.findall(r"\bREPRO_[A-Z0-9_]+", path.read_text())
            if not name.endswith("_")  # a prefix, e.g. REPRO_SENTINEL_*
        )
    assert used - set(KNOBS) == set()

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Environment\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.M)
    assert sorted(listed) == sorted(KNOBS)
