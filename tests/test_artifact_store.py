"""Artifact-store tests: content addresses, hit/miss, self-healing,
cross-process claims, quarantine, LRU eviction, degradation.

Covers the cache satellite (digest stability across processes,
memory/disk hit behaviour, corruption detection with
recompute-and-overwrite, bit-for-bit round-tripping) and the
crash-safe cross-process tier: per-digest locks and claims, the
stale-claim takeover paths, the token-guarded publish, the disk byte
budget, ``store doctor``, and two whole *processes* sharing one store
without recomputing a single digest.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import socket
import subprocess
import sys
import time
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline import (
    ArtifactStore,
    FileLock,
    MeshConfig,
    PartitionConfig,
    STAGES,
    Pipeline,
    Scenario,
    acquire_claim,
    canonical_json,
    stage_digest,
)
from repro.pipeline.locking import claim_is_stale
from repro.util.env import parse_bytes
from tests.oracles.invariants import validate_schedule

SCENARIO = Scenario.standard(
    "cube", domains=4, processes=2, cores=2, strategy="MC_TL", scale=6
)


def write_legacy_entry(payload: Path, sidecar: Path) -> None:
    """Rewrite a stored entry as earlier versions wrote it: an ``.npz``
    container beside a version-1 sidecar listing the array names."""
    record = json.loads(sidecar.read_text())
    names = [entry[0] for entry in record["arrays"]]
    arrays = ArtifactStore(payload.parent.parent).disk_read(
        payload.parent.name, payload.stem
    ).arrays
    np.savez(payload.with_suffix(".npz"), **arrays)
    payload.unlink()
    del record["nbytes"], record["crc32"]
    record.update(sidecar_version=1, arrays=names)
    sidecar.write_text(json.dumps(record))


@pytest.fixture
def disk_store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "artifacts")


class TestDigests:
    def test_stable_across_processes(self):
        cfg = PartitionConfig(domains=8, processes=4, strategy="MC_TL")
        here = stage_digest("partition", 1, cfg, ("aaa", "bbb"))
        code = (
            "from repro.pipeline import PartitionConfig, stage_digest;"
            "print(stage_digest('partition', 1,"
            " PartitionConfig(domains=8, processes=4, strategy='MC_TL'),"
            " ('aaa', 'bbb')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == here

    def test_config_changes_digest(self):
        base = PartitionConfig(domains=8, processes=4)
        d0 = stage_digest("partition", 1, base, ())
        for other in (
            PartitionConfig(domains=16, processes=4),
            PartitionConfig(domains=8, processes=4, seed=1),
            PartitionConfig(domains=8, processes=4, strategy="MC_TL"),
        ):
            assert stage_digest("partition", 1, other, ()) != d0
        # The worker count is how the partition runs, not what it is.
        for n_jobs in (1, 2, -1):
            same = PartitionConfig(domains=8, processes=4, n_jobs=n_jobs)
            assert stage_digest("partition", 1, same, ()) == d0

    def test_upstream_and_version_change_digest(self):
        cfg = MeshConfig(name="cube")
        d0 = stage_digest("mesh", 1, cfg, ())
        assert stage_digest("mesh", 2, cfg, ()) != d0
        assert stage_digest("mesh", 1, cfg, ("upstream",)) != d0

    def test_canonical_json_is_key_sorted(self):
        s = canonical_json(PartitionConfig(domains=2, processes=1))
        assert json.loads(s) == {
            "domains": 2,
            "processes": 1,
            "strategy": "SC_OC",
            "seed": 0,
            "imbalance_tol": 1.05,
        }
        assert list(json.loads(s)) == sorted(json.loads(s))


class TestHitMiss:
    def test_cold_then_memory_then_disk(self, disk_store):
        pipe = Pipeline(disk_store)
        rec1 = pipe.run(SCENARIO)
        assert rec1.cache_hits == 0
        assert set(rec1.provenance) == {
            "mesh", "levels", "partition", "taskgraph", "schedule",
        }

        rec2 = pipe.run(SCENARIO)
        assert rec2.all_cached
        assert all(r.cache == "memory" for r in rec2.provenance.values())

        disk_store.clear_memory()
        rec3 = pipe.run(SCENARIO)
        assert rec3.all_cached
        assert all(r.cache == "disk" for r in rec3.provenance.values())

    def test_config_change_misses_downstream_only(self, disk_store):
        pipe = Pipeline(disk_store)
        pipe.run(SCENARIO)
        other = SCENARIO.with_options(strategy="SC_OC")
        rec = pipe.run(other)
        prov = rec.provenance
        assert prov["mesh"].hit and prov["levels"].hit
        assert not prov["partition"].hit
        assert not prov["taskgraph"].hit
        assert not prov["schedule"].hit

    def test_memory_lru_is_bounded(self):
        store = ArtifactStore(memory_items=2)
        store.memory_put("a", 1)
        store.memory_put("b", 2)
        store.memory_put("c", 3)
        assert store.memory_get("a") is None
        assert store.memory_get("b") == 2
        assert store.memory_get("c") == 3

    def test_memory_only_store_misses_disk(self):
        store = ArtifactStore()
        assert not store.disk_enabled
        assert store.disk_read("mesh", "deadbeef") is None
        assert store.disk_write("mesh", "deadbeef", {}, {}) is None


def _flip_last_byte(payload: Path, sidecar: Path) -> None:
    raw = bytearray(payload.read_bytes())
    raw[-1] ^= 0xFF  # last byte of the last array
    payload.write_bytes(bytes(raw))


def _edit_sidecar(edit):
    def corrupt(payload: Path, sidecar: Path) -> None:
        record = json.loads(sidecar.read_text())
        edit(record)
        sidecar.write_text(json.dumps(record))

    return corrupt


def _grow_first_array(record: dict) -> None:
    record["arrays"][0][2][0] += 1  # one more element than stored


def _retype_first_array(record: dict) -> None:
    # the partition's first array is an int narrowed to int8; no
    # float64 widens back from that
    record["arrays"][0][3:] = ["<f8"]


#: Damage done to a stored entry, and what the warning must name.
CORRUPTIONS = {
    "truncated": (
        lambda p, s: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
        "payload is",
    ),
    "trailing": (lambda p, s: p.write_bytes(p.read_bytes() + bytes(8)), "payload is"),
    # the size still matches: the CRC-32 over every byte catches it
    "flipped": (_flip_last_byte, "CRC"),
    "missing": (lambda p, s: p.unlink(), "FileNotFoundError"),
    "manifest": (_edit_sidecar(_grow_first_array), "manifest sums to"),
    "widening": (_edit_sidecar(_retype_first_array), "does not widen"),
    "version": (
        _edit_sidecar(lambda r: r.update(sidecar_version=4)),
        "unknown sidecar_version 4",
    ),
}


class TestSelfHealing:
    def _one_artifact(self, disk_store) -> tuple[Pipeline, Path, Path]:
        pipe = Pipeline(disk_store)
        rec = pipe.run(SCENARIO, through="partition")
        digest = rec.provenance["partition"].digest
        base = disk_store.root / "partition" / digest
        return pipe, base.with_suffix(".bin"), base.with_suffix(".json")

    @pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
    def test_corrupt_entry_recomputes_and_heals(self, disk_store, mode):
        corrupt, match = CORRUPTIONS[mode]
        pipe, payload, sidecar = self._one_artifact(disk_store)
        corrupt(payload, sidecar)
        disk_store.clear_memory()
        with pytest.warns(RuntimeWarning, match=f"corrupt artifact.*{match}"):
            rec = pipe.run(SCENARIO, through="partition")
        assert not rec.provenance["partition"].hit
        assert disk_store.stats.corrupt == 1
        assert disk_store.stats.quarantined == 1
        qdir = disk_store.root / ".quarantine"
        assert (qdir / f"partition__{sidecar.name}").exists()
        assert (qdir / f"partition__{payload.name}").exists() == (
            mode != "missing"
        )
        # the overwrite healed the entry: next read is a clean disk hit
        disk_store.clear_memory()
        rec2 = pipe.run(SCENARIO, through="partition")
        assert rec2.provenance["partition"].cache == "disk"

    def test_truncated_entry_read_closes_its_file(
        self, disk_store, monkeypatch
    ):
        """A quarantined entry leaves no open descriptor behind (a
        long-running daemon would leak one per corrupt entry)."""
        import gc

        _, payload, sidecar = self._one_artifact(disk_store)
        CORRUPTIONS["truncated"][0](payload, sidecar)
        digest = payload.stem
        # An unclosed file warns from its finalizer, where a raised
        # warning surfaces as an "unraisable" exception, not here.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            warnings.simplefilter("ignore", RuntimeWarning)
            assert disk_store.disk_read("partition", digest) is None
            gc.collect()
        assert disk_store.stats.corrupt == 1
        assert [u.exc_value for u in unraisable] == []

    def test_mismatched_sidecar_recomputes(self, disk_store):
        pipe, _, sidecar = self._one_artifact(disk_store)
        record = json.loads(sidecar.read_text())
        record["digest"] = "0" * len(record["digest"])
        sidecar.write_text(json.dumps(record))
        disk_store.clear_memory()
        with pytest.warns(RuntimeWarning, match="corrupt artifact"):
            rec = pipe.run(SCENARIO, through="partition")
        assert not rec.provenance["partition"].hit

    def test_unparsable_sidecar_recomputes(self, disk_store):
        pipe, _, sidecar = self._one_artifact(disk_store)
        sidecar.write_text("{not json")
        disk_store.clear_memory()
        with pytest.warns(RuntimeWarning, match="corrupt artifact"):
            rec = pipe.run(SCENARIO, through="partition")
        assert not rec.provenance["partition"].hit

    def test_undecodable_sidecar_reads_as_none(self, disk_store):
        _, _, sidecar = self._one_artifact(disk_store)
        digest = sidecar.stem
        assert disk_store.sidecar("partition", digest) is not None
        sidecar.write_bytes(b'{"stage": "\xff"}')
        assert disk_store.sidecar("partition", digest) is None


class TestRoundTrip:
    def test_mc_tl_partition_bit_for_bit(self, disk_store):
        pipe = Pipeline(disk_store)
        fresh = pipe.run(SCENARIO, through="partition").decomp

        disk_store.clear_memory()
        rec = pipe.run(SCENARIO, through="partition")
        assert rec.provenance["partition"].cache == "disk"
        cached = rec.decomp
        assert cached is not fresh
        assert cached.domain.dtype == fresh.domain.dtype
        np.testing.assert_array_equal(cached.domain, fresh.domain)
        np.testing.assert_array_equal(
            cached.domain_process, fresh.domain_process
        )
        assert cached.num_domains == fresh.num_domains
        assert cached.num_processes == fresh.num_processes
        assert cached.strategy == fresh.strategy


    def test_legacy_npz_entry_is_recomputed_once(self, disk_store):
        """An entry as earlier versions wrote it (an ``.npz`` beside a
        version-1 sidecar) is a plain miss: no warning, no corrupt
        count, no quarantine.  It is recomputed once, that publish
        replaces it, and the next run is a disk hit."""
        pipe = Pipeline(disk_store)
        fresh = pipe.run(SCENARIO, through="partition")
        digest = fresh.provenance["partition"].digest
        payload, sidecar = disk_store._paths("partition", digest)
        write_legacy_entry(payload, sidecar)
        npz = payload.with_suffix(".npz")
        assert npz.exists() and not payload.exists()

        disk_store.clear_memory()
        misses = disk_store.stats.misses
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the store's
            rec = pipe.run(SCENARIO, through="partition")
        assert rec.provenance["partition"].cache is None
        assert rec.provenance["levels"].cache == "disk"
        assert disk_store.stats.misses == misses + 1
        assert disk_store.stats.corrupt == 0
        assert disk_store.stats.quarantined == 0
        assert not npz.exists()
        np.testing.assert_array_equal(rec.decomp.domain, fresh.decomp.domain)

        disk_store.clear_memory()
        again = pipe.run(SCENARIO, through="partition")
        assert again.provenance["partition"].cache == "disk"
        assert disk_store.stats.misses == misses + 1

    def test_schedule_round_trips(self, disk_store):
        pipe = Pipeline(disk_store)
        fresh = pipe.run(SCENARIO)

        disk_store.clear_memory()
        rec = pipe.run(SCENARIO)
        assert rec.provenance["schedule"].cache == "disk"
        assert rec.metrics.makespan == fresh.metrics.makespan
        assert rec.metrics.total_work == fresh.metrics.total_work
        np.testing.assert_array_equal(
            rec.trace.start, fresh.trace.start
        )
        validate_schedule(rec.trace, rec.dag)

    def test_entry_is_stored_and_read_back_owned(self, disk_store):
        """The payload is the stored (narrowed) array bytes and nothing
        else; what ``disk_read`` hands back is fresh memory the caller
        may write to."""
        arrays = {
            "ints": np.zeros(4096, dtype=np.int64),
            "floats": np.linspace(0.0, 1.0, 1000),
            "flags": np.ones((8, 8), dtype=bool),
        }
        disk_store.disk_write("mesh", "a" * 40, arrays, sidecar={"meta": {}})
        payload, sidecar = disk_store._paths("mesh", "a" * 40)
        record = json.loads(sidecar.read_text())
        stored = sum(
            np.dtype(dtype).itemsize * int(np.prod(shape))
            for _, dtype, shape, *_ in record["arrays"]
        )
        assert payload.stat().st_size == stored
        assert stored < sum(a.nbytes for a in arrays.values())  # ints
        assert record["sidecar_version"] == 3
        assert record["nbytes"] == stored
        assert [entry[0] for entry in record["arrays"]] == sorted(arrays)

        got = disk_store.disk_read("mesh", "a" * 40).arrays
        assert sorted(got) == sorted(arrays)
        for name, arr in got.items():
            np.testing.assert_array_equal(arr, arrays[name])
            assert arr.dtype == arrays[name].dtype
            assert arr.flags.writeable
            arr[...] = 1  # must not raise, nor reach a sibling
        for a, b in itertools.combinations(got.values(), 2):
            assert not np.shares_memory(a, b)

    def test_shapes_dtypes_and_layouts_round_trip(self, disk_store):
        grid = np.arange(24, dtype=np.float64).reshape(4, 6)
        arrays = {
            "scalar": np.array(2.5),
            "empty": np.zeros(0, dtype=np.int32),
            "empty_rows": np.zeros((0, 3)),
            "flags": np.array([True, False, True]),
            "int8": np.arange(-4, 4, dtype=np.int8),
            "uint16": np.arange(7, dtype=np.uint16),
            "big_endian": np.arange(5, dtype=">f8"),
            "text": np.array(["a", "bc", "def"], dtype="<U3"),
            "fortran": np.asfortranarray(grid),
            "strided": grid[::2, 1::2],
        }
        assert disk_store.disk_write(
            "mesh", "b" * 40, arrays, sidecar={"meta": {}}
        ) is not None
        got = disk_store.disk_read("mesh", "b" * 40).arrays
        assert sorted(got) == sorted(arrays)
        for name, arr in got.items():
            want = arrays[name]
            assert arr.dtype == want.dtype, name
            assert arr.shape == want.shape, name
            np.testing.assert_array_equal(arr, want)
            assert arr.flags.owndata and arr.flags.writeable, name
        for a, b in itertools.combinations(got.values(), 2):
            assert not np.shares_memory(a, b)

    def test_sidecar_provenance_fields(self, disk_store):
        pipe = Pipeline(disk_store)
        rec = pipe.run(SCENARIO, through="partition")
        digest = rec.provenance["partition"].digest
        sc = disk_store.sidecar("partition", digest)
        assert sc is not None
        assert sc["stage"] == "partition"
        assert sc["digest"] == digest
        assert len(sc["upstream"]) == 2
        assert sc["stage_version"] == STAGES["partition"].version
        assert sc["wall_time"] >= 0
        assert json.loads(sc["config"])["strategy"] == "MC_TL"


def write_v2_entry(store: ArtifactStore, stage: str, digest: str) -> None:
    """Rewrite a stored entry as ``sidecar_version`` 2 wrote it: every
    array's own C-order bytes, nothing narrowed, and a manifest of
    ``[name, dtype, shape]`` triples."""
    payload, sidecar = store._paths(stage, digest)
    arrays = store.disk_read(stage, digest).arrays
    record = json.loads(sidecar.read_text())
    names = sorted(arrays)
    raw = b"".join(np.ascontiguousarray(arrays[n]).tobytes() for n in names)
    payload.write_bytes(raw)
    record.update(
        sidecar_version=2,
        arrays=[
            [n, arrays[n].dtype.str, list(arrays[n].shape)] for n in names
        ],
        nbytes=len(raw),
        crc32=zlib.crc32(raw),
    )
    sidecar.write_text(json.dumps(record))


def _nan(bits: int) -> np.ndarray:
    return np.array([bits], dtype=np.uint64).view(np.float64)


_I32, _I64 = np.iinfo(np.int32), np.iinfo(np.int64)
_GRID = np.arange(40, dtype=np.int64).reshape(5, 8)

#: name -> (array, the dtype its bytes are stored in).
LADDER = {
    "i8_edges": (np.array([-128, 127], dtype=np.int64), "|i1"),
    "i8_below": (np.array([-129, 0], dtype=np.int64), "<i2"),
    "i8_above": (np.array([0, 128], dtype=np.int64), "<i2"),
    "i16_edges": (np.array([-32768, 32767], dtype=np.int64), "<i2"),
    "i16_below": (np.array([-32769], dtype=np.int64), "<i4"),
    "i16_above": (np.array([32768], dtype=np.int64), "<i4"),
    "i32_edges": (np.array([_I32.min, _I32.max], dtype=np.int64), "<i4"),
    "i32_below": (np.array([_I32.min - 1], dtype=np.int64), "<i8"),
    "i64_edges": (np.array([_I64.min, _I64.max], dtype=np.int64), "<i8"),
    "i16_as_i8": (np.array([-128, 127], dtype=np.int16), "|i1"),
    "i32_kept": (np.array([_I32.min], dtype=np.int32), "<i4"),
    # float32 carries the sign of zero and infinities exactly
    "neg_zero": (np.array([-0.0, 0.0]), "<f4"),
    "inf": (np.array([np.inf, -np.inf, 1.5]), "<f4"),
    "quiet_nan": (_nan(0x7FF8000000000000), "<f4"),
    "nan_payload": (_nan(0x7FF8000000000001), "<f8"),
    "subnormal": (np.array([5e-324]), "<f8"),
    "inexact": (np.array([0.1]), "<f8"),
    "overflow": (np.array([1e300]), "<f8"),
    "empty_f8": (np.zeros(0), "<f8"),
    "empty_i8": (np.zeros((0, 3), dtype=np.int64), "<i8"),
    "scalar_f8": (np.array(2.5), "<f4"),
    "scalar_i8": (np.array(7, dtype=np.int64), "|i1"),
    "fortran": (np.asfortranarray(np.arange(12.0).reshape(3, 4)), "<f4"),
    "strided": (_GRID[::2, 1::3], "|i1"),
    "big_f8": (np.arange(5, dtype=">f8"), "<f4"),
    "big_i8": (np.arange(5, dtype=">i8"), "|i1"),
    "uint64": (np.arange(3, dtype=np.uint64), "<u8"),
    "float32": (np.array([0.1], dtype=np.float32), "<f4"),
    "flags": (np.array([True, False]), "|b1"),
    # long enough to widen in several in-place steps
    "long_f8": (np.arange(100_003) * 0.25, "<f4"),
    "long_i8": (np.arange(-50_000, 50_001, dtype=np.int64) * 7, "<i4"),
    "long_i8_as_i1": (np.arange(70_001, dtype=np.int64) % 101 - 50, "|i1"),
    "long_big_f8": (np.arange(30_001, dtype=">f8") - 0.5, "<f4"),
}


class TestNarrowing:
    def test_every_rung_round_trips_bit_for_bit(self, disk_store):
        arrays = {name: arr for name, (arr, _) in LADDER.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast may warn
            assert disk_store.disk_write(
                "mesh", "n" * 40, arrays, sidecar={}
            ) is not None
            got = disk_store.disk_read("mesh", "n" * 40).arrays
        record = disk_store.sidecar("mesh", "n" * 40)
        stored = {entry[0]: entry[1] for entry in record["arrays"]}
        assert stored == {name: dt for name, (_, dt) in LADDER.items()}
        for entry in record["arrays"]:
            name, dtype, _, *logical = entry
            want = arrays[name].dtype.str
            assert logical == ([] if dtype == want else [want]), name
        assert sorted(got) == sorted(arrays)
        for name, arr in got.items():
            want = arrays[name]
            assert arr.dtype.str == want.dtype.str, name
            assert arr.shape == want.shape, name
            assert arr.tobytes() == want.tobytes(), name
            assert arr.flags.owndata and arr.flags.writeable, name

    def test_flipped_byte_in_a_narrowed_array_is_quarantined(
        self, disk_store
    ):
        arrays = {"a": np.arange(1000, dtype=np.int64), "b": np.arange(8.0)}
        disk_store.disk_write("mesh", "f" * 40, arrays, sidecar={})
        payload, sidecar = disk_store._paths("mesh", "f" * 40)
        assert disk_store.sidecar("mesh", "f" * 40)["arrays"][0][1] == "<i2"
        raw = bytearray(payload.read_bytes())
        raw[1000] ^= 0x01  # inside "a", stored as int16
        payload.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="corrupt artifact.*CRC"):
            assert disk_store.disk_read("mesh", "f" * 40) is None
        assert disk_store.stats.quarantined == 1
        assert not payload.exists() and not sidecar.exists()

    def test_version_2_entries_are_served_as_they_are(self, disk_store):
        """Entries written before narrowing (``sidecar_version`` 2)
        read with no warning and no recompute, and stay as written."""
        pipe = Pipeline(disk_store)
        fresh = pipe.run(SCENARIO, through="partition")
        for stage, prov in fresh.provenance.items():
            write_v2_entry(disk_store, stage, prov.digest)
        disk_store.clear_memory()
        misses = disk_store.stats.misses
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the store's
            rec = pipe.run(SCENARIO, through="partition")
        assert {p.cache for p in rec.provenance.values()} == {"disk"}
        assert disk_store.stats.misses == misses
        assert disk_store.stats.corrupt == 0
        np.testing.assert_array_equal(rec.decomp.domain, fresh.decomp.domain)
        assert rec.decomp.domain.dtype == fresh.decomp.domain.dtype
        for stage, prov in rec.provenance.items():
            record = disk_store.sidecar(stage, prov.digest)
            assert record["sidecar_version"] == 2

    def test_write_holds_at_most_one_narrowed_array(self, disk_store):
        """``disk_write`` streams: above its inputs it never holds more
        than one array's narrowed bytes."""
        n = 1 << 20
        arrays = {f"x{i}": np.arange(n) * 0.5 for i in range(4)}
        arrays["ids"] = np.arange(n, dtype=np.int64)
        disk_store.root.mkdir(parents=True)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            assert disk_store.disk_write("mesh", "m" * 40, arrays, sidecar={})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        narrowed = n * 4  # one float64 array as float32
        assert disk_store.sidecar("mesh", "m" * 40)["nbytes"] == 5 * narrowed
        assert peak - base <= narrowed


class TestFileLock:
    def test_mutual_exclusion_and_release(self, tmp_path):
        path = tmp_path / "x.lock"
        a, b = FileLock(path), FileLock(path)
        assert a.try_acquire()
        assert not b.try_acquire()
        a.release()
        assert b.try_acquire()
        b.release()


class TestClaims:
    def _claim(self, **over) -> dict:
        record = {
            "pid": os.getpid(),
            "hostname": socket.gethostname(),
            "started_at": time.time(),
            "heartbeat": time.time(),
            "token": "tok",
        }
        record.update(over)
        return record

    def test_fresh_live_claim_is_not_stale(self):
        assert not claim_is_stale(self._claim(), ttl=30.0)

    def test_old_heartbeat_is_stale(self):
        old = self._claim(heartbeat=time.time() - 100.0)
        assert claim_is_stale(old, ttl=30.0)

    def test_dead_pid_is_stale_despite_fresh_heartbeat(self):
        dead = self._claim(pid=2**22 + 12345)  # vanishingly unlikely pid
        assert claim_is_stale(dead, ttl=30.0)

    def test_winner_then_reader(self, tmp_path):
        base = tmp_path / "stage" / ("d" * 8)
        published = {"yes": False}
        lease = acquire_claim(
            base, published=lambda: published["yes"], ttl=5.0, timeout=5.0
        )
        assert lease.role == "winner"
        assert lease.still_owner()
        published["yes"] = True
        lease.release()
        reader = acquire_claim(
            base, published=lambda: published["yes"], ttl=5.0, timeout=5.0
        )
        assert reader.role == "reader"
        reader.release()

    @staticmethod
    def _published_after(calls: int):
        """A ``published`` probe that turns true after ``calls`` checks:
        a holder publishing and releasing in between."""
        seen = itertools.count()
        return lambda: next(seen) >= calls

    def test_publish_before_the_lock_is_taken_yields_reader(self, tmp_path):
        base = tmp_path / "stage" / ("c" * 8)
        lease = acquire_claim(
            base, published=self._published_after(1), ttl=5.0, timeout=5.0
        )
        assert lease.role == "reader"
        lease.release()
        assert FileLock(base.with_name(base.name + ".lock")).try_acquire()
        assert not base.with_name(base.name + ".claim").exists()

    def test_publish_during_a_takeover_yields_reader(self, tmp_path):
        base = tmp_path / "stage" / ("b" * 8)
        base.parent.mkdir(parents=True)
        holder_lock = FileLock(base.with_name(base.name + ".lock"))
        assert holder_lock.try_acquire()
        claim_path = base.with_name(base.name + ".claim")
        claim_path.write_text(
            json.dumps(self._claim(heartbeat=time.time() - 3600, token="old"))
        )
        with pytest.warns(RuntimeWarning, match="taking over stale claim"):
            lease = acquire_claim(
                base,
                published=self._published_after(1),
                ttl=0.5,
                timeout=10.0,
            )
        assert lease.role == "reader"
        assert not claim_path.exists()
        lease.release()
        holder_lock.release()

    def test_dead_holder_claim_is_reclaimed(self, tmp_path):
        base = tmp_path / "stage" / ("e" * 8)
        base.parent.mkdir(parents=True)
        claim_path = base.with_name(base.name + ".claim")
        claim_path.write_text(
            json.dumps(self._claim(pid=2**22 + 54321, token="dead"))
        )
        with pytest.warns(RuntimeWarning, match="reclaiming stale claim"):
            lease = acquire_claim(
                base, published=lambda: False, ttl=5.0, timeout=5.0
            )
        assert lease.role == "winner"
        assert lease.reclaimed
        lease.release()
        assert not claim_path.exists()

    def test_live_but_stale_holder_is_deposed(self, tmp_path):
        """A holder whose heartbeat looks ancient (skewed clock) is
        taken over by overwriting the claim; its token dies with it."""
        base = tmp_path / "stage" / ("f" * 8)
        base.parent.mkdir(parents=True)
        holder_lock = FileLock(base.with_name(base.name + ".lock"))
        assert holder_lock.try_acquire()  # a "live" holder elsewhere
        claim_path = base.with_name(base.name + ".claim")
        claim_path.write_text(
            json.dumps(self._claim(heartbeat=time.time() - 3600, token="old"))
        )
        with pytest.warns(RuntimeWarning, match="taking over stale claim"):
            lease = acquire_claim(
                base, published=lambda: False, ttl=0.5, timeout=10.0
            )
        assert lease.role == "winner"
        assert lease.deposed_holder
        # the deposed holder's token no longer matches the claim
        assert json.loads(claim_path.read_text())["token"] == lease.token
        lease.release()
        holder_lock.release()

    def test_deposed_winner_drops_publish(self, tmp_path):
        """The token guard: a winner whose claim was taken over must
        not land its publish (stats.publishes_dropped)."""
        store = ArtifactStore(tmp_path / "store", claim_ttl=5.0)
        lease = store.claim("mesh", "a" * 40)
        assert lease is not None and lease.role == "winner"
        # simulate a takeover while computing
        lease.claim_path.write_text(
            json.dumps(self._claim(token="usurper"))
        )
        with pytest.warns(RuntimeWarning, match="dropping publish"):
            out = store.disk_write(
                "mesh",
                "a" * 40,
                {"x": np.arange(4.0)},
                sidecar={"meta": {}},
                lease=lease,
            )
        assert out is None
        assert store.stats.publishes_dropped == 1
        assert not (tmp_path / "store" / "mesh" / ("a" * 40 + ".json")).exists()
        lease.release()

    def test_store_claim_counters(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", claim_ttl=5.0)
        lease = store.claim("mesh", "b" * 40)
        assert store.stats.claims_won == 1
        store.disk_write(
            "mesh", "b" * 40, {"x": np.arange(4.0)},
            sidecar={"meta": {}}, lease=lease,
        )
        lease.release()
        reader = store.claim("mesh", "b" * 40)
        assert reader.role == "reader"
        assert store.stats.claims_waited == 1
        reader.release()

    def test_parse_bytes(self):
        assert parse_bytes(None) is None
        assert parse_bytes("") is None
        assert parse_bytes("1024") == 1024
        assert parse_bytes("512M") == 512 * 2**20
        assert parse_bytes("2G") == 2 * 2**30
        assert parse_bytes(42) == 42
        for garbage in ("lots", "inf", "1e400", "nan"):
            with pytest.raises(ValueError, match="unparsable byte budget"):
                parse_bytes(garbage)


class TestQuarantine:
    def test_corrupt_entry_is_quarantined_with_reason(self, disk_store):
        pipe = Pipeline(disk_store)
        rec = pipe.run(SCENARIO, through="levels")
        digest = rec.provenance["levels"].digest
        payload = disk_store.root / "levels" / f"{digest}.bin"
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
        disk_store.clear_memory()
        with pytest.warns(RuntimeWarning, match="quarantining"):
            assert disk_store.disk_read("levels", digest) is None
        assert disk_store.stats.quarantined == 1
        qdir = disk_store.root / ".quarantine"
        names = {p.name for p in qdir.iterdir()}
        assert f"levels__{digest}.bin" in names
        reason = json.loads(
            (qdir / f"levels__{digest}.reason.json").read_text()
        )
        assert reason["stage"] == "levels"
        assert reason["digest"] == digest
        assert "reason" in reason


class TestDoctor:
    def test_reports_entries_claims_and_quarantine(self, disk_store):
        pipe = Pipeline(disk_store)
        pipe.run(SCENARIO, through="levels")
        # a stale claim, an active claim, a tmp leftover, a corpse
        stage_dir = disk_store.root / "mesh"
        (stage_dir / "stale.claim").write_text(
            json.dumps(
                {
                    "pid": 2**22 + 999,
                    "hostname": socket.gethostname(),
                    "heartbeat": time.time() - 9999,
                    "token": "t",
                }
            )
        )
        (stage_dir / "live.claim").write_text(
            json.dumps(
                {
                    "pid": os.getpid(),
                    "hostname": socket.gethostname(),
                    "heartbeat": time.time(),
                    "token": "t",
                }
            )
        )
        (stage_dir / "junk.bin.tmp123").write_bytes(b"torn")
        qdir = disk_store.root / ".quarantine"
        qdir.mkdir()
        (qdir / "mesh__deadbeef.bin").write_bytes(b"corpse")

        report = disk_store.doctor()
        assert report.entries == 2  # mesh + levels artifacts
        assert not report.healthy
        assert len(report.stale_claims) == 1
        assert len(report.active_claims) == 1
        assert report.tmp_files == ["mesh/junk.bin.tmp123"]
        assert report.quarantined == ["mesh__deadbeef.bin"]
        text = report.summary()
        assert "needs attention" in text

        flushed = disk_store.doctor(flush=True)
        assert flushed.flushed == 3  # stale claim + tmp + corpse
        after = disk_store.doctor()
        assert after.healthy
        assert after.entries == 2  # artifacts themselves untouched
        assert len(after.active_claims) == 1  # live claim survives

    def test_doctor_cli(self, tmp_path, capsys):
        from repro.cli import main

        store = ArtifactStore(tmp_path / "store")
        store.disk_write(
            "mesh", "c" * 40, {"x": np.arange(8.0)}, sidecar={"meta": {}}
        )
        rc = main(["--artifacts", str(tmp_path / "store"), "store", "doctor"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "entries: 1" in out
        assert "healthy" in out


class TestEviction:
    def _write(self, store, digest, *, mtime=None):
        rng = np.random.default_rng(int(digest[:8], 16))
        path = store.disk_write(
            "mesh",
            digest,
            {"x": rng.random(2048)},  # incompressible ~16 KiB
            sidecar={"meta": {}},
        )
        if path is not None and mtime is not None:
            os.utime(path, times=(mtime, mtime))
        return path

    def test_lru_eviction_under_budget(self, tmp_path):
        probe = ArtifactStore(tmp_path / "probe")
        self._write(probe, "0" * 40)
        entries = probe._disk_entries()
        entry_size = entries[0][1]

        store = ArtifactStore(
            tmp_path / "store", budget_bytes=int(entry_size * 2.5)
        )
        now = time.time()
        digests = [f"{i}".rjust(40, "d") for i in range(4)]
        for i, digest in enumerate(digests):
            # strictly increasing recency: digest 0 is the LRU victim
            self._write(store, digest, mtime=now - 100 + i)
        assert store.stats.evicted >= 1
        remaining = {d for _, _, _, d in store._disk_entries()}
        assert digests[-1] in remaining  # the fresh write is protected
        assert digests[0] not in remaining  # the LRU entry went first
        total = sum(s for _, s, _, _ in store._disk_entries())
        assert total <= store.budget_bytes

    def test_legacy_entry_is_counted_and_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        self._write(store, "c" * 40, mtime=time.time() - 100)
        payload, sidecar = store._paths("mesh", "c" * 40)
        write_legacy_entry(payload, sidecar)
        npz = payload.with_suffix(".npz")
        ((_, size, _, _),) = store._disk_entries()
        assert size == npz.stat().st_size + sidecar.stat().st_size
        assert store.doctor().entries == 1
        store.budget_bytes = 1
        self._write(store, "d" * 40)
        assert store.stats.evicted == 1
        assert not npz.exists() and not sidecar.exists()

    def test_disk_hit_bumps_recency(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        self._write(store, "e" * 40, mtime=time.time() - 500)
        _, json_path = store._paths("mesh", "e" * 40)
        before = json_path.stat().st_mtime
        assert store.disk_read("mesh", "e" * 40) is not None
        assert json_path.stat().st_mtime > before

    def test_eviction_skips_actively_claimed_digest(self, tmp_path):
        probe = ArtifactStore(tmp_path / "probe")
        self._write(probe, "0" * 40)
        entry_size = probe._disk_entries()[0][1]
        store = ArtifactStore(
            tmp_path / "store", budget_bytes=int(entry_size * 1.5)
        )
        now = time.time()
        self._write(store, "a" * 40, mtime=now - 100)
        # an active (fresh heartbeat, live pid) claim pins the entry
        claim = store.root / "mesh" / ("a" * 40 + ".claim")
        claim.write_text(
            json.dumps(
                {
                    "pid": os.getpid(),
                    "hostname": socket.gethostname(),
                    "heartbeat": time.time(),
                    "token": "t",
                }
            )
        )
        self._write(store, "b" * 40, mtime=now)
        remaining = {d for _, _, _, d in store._disk_entries()}
        assert "a" * 40 in remaining  # pinned despite being LRU


class TestDegradation:
    def test_disk_full_degrades_to_memory_only(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")

        def boom(*a, **k):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.warns(RuntimeWarning, match="degraded to memory-only"):
            out = store.disk_write(
                "mesh", "f" * 40, {"x": np.arange(4.0)}, sidecar={"meta": {}}
            )
        assert out is None
        assert not store.disk_enabled
        assert "no space" in store.stats.degraded
        monkeypatch.undo()
        # degraded store serves from memory and never touches disk again
        assert store.disk_read("mesh", "f" * 40) is None
        assert store.claim("mesh", "f" * 40) is None
        store.memory_put("f" * 40, "obj")
        assert store.memory_get("f" * 40) == "obj"

    def test_transient_write_error_does_not_degrade(
        self, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "store")

        def boom(*a, **k):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.warns(RuntimeWarning, match="continuing uncached"):
            out = store.disk_write(
                "mesh", "g" * 40, {"x": np.arange(4.0)}, sidecar={"meta": {}}
            )
        assert out is None
        monkeypatch.undo()
        assert store.disk_enabled  # EIO is not an environmental fault
        assert store.disk_write(
            "mesh", "g" * 40, {"x": np.arange(4.0)}, sidecar={"meta": {}}
        ) is not None

    def test_object_array_is_refused_before_any_file(self, tmp_path):
        """The writer refuses what the reader could not rebuild: an
        object array never reaches disk (it would be quarantined as
        corrupt on every later read)."""
        store = ArtifactStore(tmp_path / "store")
        arrays = {"x": np.arange(3.0), "o": np.array([1, "a"], dtype=object)}
        with pytest.warns(RuntimeWarning, match="continuing uncached"):
            out = store.disk_write("mesh", "i" * 40, arrays, sidecar={})
        assert out is None
        assert store.disk_enabled
        assert not (tmp_path / "store" / "mesh").exists()
        assert store.disk_read("mesh", "i" * 40) is None
        assert store.stats.corrupt == 0

    def test_failed_sidecar_write_leaves_no_tmp(self, tmp_path):
        """Any exception mid-write, not only an ``OSError``, removes
        the tmp files and publishes nothing."""
        store = ArtifactStore(tmp_path / "store")
        with pytest.warns(RuntimeWarning, match="continuing uncached"):
            out = store.disk_write(
                "mesh", "j" * 40, {"x": np.arange(3.0)},
                sidecar={"meta": {"not_json": object()}},
            )
        assert out is None
        payload, sidecar = store._paths("mesh", "j" * 40)
        assert not sidecar.exists()
        assert sorted(p.name for p in payload.parent.iterdir()) == [
            payload.name
        ]
        assert store.disk_read("mesh", "j" * 40) is None
        assert store.doctor().tmp_files == []

    def test_unlockable_filesystem_computes_uncoordinated(
        self, tmp_path, monkeypatch
    ):
        """A filesystem without lock support (``ENOLCK``) costs one
        warning: the stage still computes and publishes, and later
        claims skip the lock altogether."""
        from repro.pipeline import store as store_mod

        calls = []

        def no_locks(*a, **k):
            calls.append(a)
            raise OSError(errno.ENOLCK, "no locks available")

        monkeypatch.setattr(store_mod, "acquire_claim", no_locks)
        store = ArtifactStore(tmp_path / "store")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = Pipeline(store, n_jobs=1).run(SCENARIO, through="levels")
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert "without cross-process coordination" in str(
            runtime[0].message
        )
        assert len(calls) == 1  # the levels stage never tried to lock
        assert store.disk_enabled  # ENOLCK is not a disk fault
        for name in ("mesh", "levels"):
            assert rec.provenance[name].cache is None  # computed
            digest = rec.provenance[name].digest
            assert store.disk_read(name, digest) is not None  # published
        assert store.claim("mesh", "h" * 40) is None
        assert len(calls) == 1


_CONCURRENT_WORKER = """
import hashlib, sys
from repro.pipeline import ArtifactStore, Pipeline, Scenario

store = ArtifactStore(sys.argv[1], claim_ttl=10.0, lock_timeout=120.0)
pipe = Pipeline(store, n_jobs=1)
sc = Scenario.standard(
    "cube", domains=4, processes=2, cores=2, strategy="MC_TL", scale=6
)
rec = pipe.run(sc)
for name, r in rec.provenance.items():
    print("STAGE", name, r.digest, r.cache or "computed")
print(
    "RESULT",
    rec.metrics.makespan,
    hashlib.sha256(rec.decomp.domain.tobytes()).hexdigest(),
)
"""


class TestConcurrentProcesses:
    def test_two_processes_share_one_store(self, tmp_path):
        """Satellite acceptance: two simultaneous ``run_batch``-style
        workers over one ``REPRO_ARTIFACTS`` dir produce bit-identical
        artifacts and no digest is computed by both."""
        root = tmp_path / "artifacts"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _CONCURRENT_WORKER, str(root)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outputs.append(out)

        computed: dict[str, list[int]] = {}
        results = []
        for i, out in enumerate(outputs):
            for line in out.splitlines():
                parts = line.split()
                if parts[0] == "STAGE" and parts[3] == "computed":
                    computed.setdefault(parts[2], []).append(i)
                elif parts[0] == "RESULT":
                    results.append((parts[1], parts[2]))
        # exactly one compute per digest across both processes
        for digest, owners in computed.items():
            assert len(owners) == 1, (digest, owners)
        # and both ended with bit-identical results
        assert results[0] == results[1]
