"""Tests for the resilience layer: fault injection, physics guards,
rollback snapshots and atomic checkpoints."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.resilience import (
    Checkpoint,
    CheckpointError,
    FaultPlan,
    FaultSpec,
    GuardConfig,
    TransientError,
    check_state,
    find_latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.solver import LTSState, blast_wave


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("bitflip", 0.1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("transient", 1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("transient", -0.1)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            FaultSpec("straggler", 0.1, delay=-1.0)


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        mk = lambda: FaultPlan(
            specs=(FaultSpec("transient", 0.3), FaultSpec("poison", 0.3)),
            seed=42,
        )
        a, b = mk(), mk()
        a.set_context(3, 0)
        b.set_context(3, 0)
        for t in range(200):
            assert a.decide(t, 0) == b.decide(t, 0)

    def test_seed_and_context_change_decisions(self):
        plan = FaultPlan(specs=(FaultSpec("transient", 0.5),), seed=0)
        plan.set_context(0, 0)
        base = [bool(plan.decide(t, 0)) for t in range(100)]
        plan.set_context(1, 0)
        other_it = [bool(plan.decide(t, 0)) for t in range(100)]
        assert base != other_it
        plan2 = FaultPlan(specs=(FaultSpec("transient", 0.5),), seed=1)
        plan2.set_context(0, 0)
        other_seed = [bool(plan2.decide(t, 0)) for t in range(100)]
        assert base != other_seed

    def test_rate_roughly_respected(self):
        plan = FaultPlan(specs=(FaultSpec("transient", 0.2),), seed=7)
        plan.set_context(0, 0)
        hits = sum(bool(plan.decide(t, 0)) for t in range(2000))
        assert 0.15 < hits / 2000 < 0.25

    def test_first_attempt_and_round_gating(self):
        plan = FaultPlan(specs=(FaultSpec("transient", 1.0),), seed=0)
        plan.set_context(0, 0)
        assert plan.decide(5, 0)  # first attempt, round 0: fires
        assert not plan.decide(5, 1)  # retry is clean
        plan.set_context(0, 1)
        assert not plan.decide(5, 0)  # rollback re-run is clean

    def test_always_on_when_gates_disabled(self):
        spec = FaultSpec(
            "transient", 1.0, first_attempt_only=False, first_round_only=False
        )
        plan = FaultPlan(specs=(spec,), seed=0)
        plan.set_context(0, 3)
        assert plan.decide(5, 4)

    def test_enabled(self):
        assert not FaultPlan().enabled
        assert not FaultPlan(specs=(FaultSpec("transient", 0.0),)).enabled
        assert FaultPlan(specs=(FaultSpec("transient", 0.1),)).enabled

    def test_wrap_transient_fires_before_body(self):
        plan = FaultPlan(specs=(FaultSpec("transient", 1.0),), seed=0)
        ran = []
        fn = plan.wrap(lambda t: ran.append(t))
        with pytest.raises(TransientError, match="task 3"):
            fn(3)
        assert ran == []  # body never started: retry is safe
        fn(3)  # second attempt is deterministically clean
        assert ran == [3]
        assert plan.injected["transient"] == 1

    def test_wrap_poison_writes_nan_after_body(self):
        plan = FaultPlan(specs=(FaultSpec("poison", 1.0),), seed=0)
        target = np.zeros((10, 4))
        ran = []
        fn = plan.wrap(lambda t: ran.append(t), poison_targets=(target,))
        fn(0)
        assert ran == [0]
        assert np.isnan(target).sum() == 1
        assert plan.injected["poison"] == 1

    def test_wrap_straggler_runs_body(self):
        plan = FaultPlan(
            specs=(FaultSpec("straggler", 1.0, delay=0.001),), seed=0
        )
        ran = []
        fn = plan.wrap(lambda t: ran.append(t))
        fn(4)
        assert ran == [4]
        assert plan.injected["straggler"] == 1


@pytest.fixture(scope="module")
def cube_state(small_cube_mesh):
    return LTSState(blast_wave(small_cube_mesh))


class TestGuards:
    def test_clean_state_passes(self, small_cube_mesh, cube_state):
        report = check_state(small_cube_mesh, cube_state, GuardConfig())
        assert report.ok
        assert not report.violations

    def test_detects_nan(self, small_cube_mesh, cube_state):
        st = LTSState(cube_state.U)
        st.U[17, 2] = np.nan
        report = check_state(small_cube_mesh, st, GuardConfig())
        assert not report.ok
        assert any("U" in v and "17" in v for v in report.violations)

    def test_detects_nan_in_accumulator(self, small_cube_mesh, cube_state):
        st = LTSState(cube_state.U)
        st.acc[3, 0] = np.inf
        report = check_state(small_cube_mesh, st, GuardConfig())
        assert not report.ok
        assert any(v.startswith("acc") for v in report.violations)

    def test_detects_negative_density(self, small_cube_mesh, cube_state):
        st = LTSState(cube_state.U)
        st.U[5, 0] = -1.0
        report = check_state(small_cube_mesh, st, GuardConfig())
        assert not report.ok
        assert any("density" in v for v in report.violations)

    def test_detects_negative_pressure(self, small_cube_mesh, cube_state):
        st = LTSState(cube_state.U)
        st.U[5, 3] = 0.0  # energy below kinetic => negative pressure
        report = check_state(small_cube_mesh, st, GuardConfig())
        assert not report.ok
        assert any("pressure" in v for v in report.violations)

    def test_detects_drift(self, small_cube_mesh, cube_state):
        ref = cube_state.conserved_total(small_cube_mesh)
        st = LTSState(cube_state.U)
        st.U[:, 0] *= 1.01  # 1% mass gain
        report = check_state(
            small_cube_mesh,
            st,
            GuardConfig(max_drift=1e-6),
            reference_total=ref,
        )
        assert not report.ok
        assert any("drifted" in v for v in report.violations)

    def test_drift_check_optional(self, small_cube_mesh, cube_state):
        ref = cube_state.conserved_total(small_cube_mesh)
        st = LTSState(cube_state.U)
        st.U[:, 0] *= 1.01
        report = check_state(
            small_cube_mesh,
            st,
            GuardConfig(max_drift=None),
            reference_total=ref,
        )
        assert report.ok  # disabled
        report = check_state(small_cube_mesh, st, GuardConfig())
        assert report.ok  # no reference given


class TestStateSnapshot:
    """The rollback snapshot is an :meth:`LTSState.copy`."""

    def test_roundtrip_is_deep(self, small_cube_mesh, cube_state):
        st = LTSState(cube_state.U)
        st.acc[:] = 0.5
        snap = st.copy()
        st.U[:] = np.nan  # corrupt the live state
        st.acc[:] = np.nan
        restored = snap.copy()
        assert np.isfinite(restored.U).all()
        np.testing.assert_array_equal(restored.acc, 0.5)

    def test_copy_returns_fresh_arrays(self, cube_state):
        snap = cube_state.copy()
        a, b = snap.copy(), snap.copy()
        assert a.U is not b.U
        a.U[0, 0] = -99.0
        assert b.U[0, 0] != -99.0

    def test_copy_has_a_fresh_lock(self, cube_state):
        """A worker abandoned mid-deposit holds the old state's lock;
        the restored copy's lock is free."""
        st = cube_state.copy()
        with st.lock:
            restored = st.copy()
            assert restored.lock is not st.lock
            assert not restored.lock.locked()

    def test_conserved_total_matches_state(self, small_cube_mesh, cube_state):
        snap = cube_state.copy()
        np.testing.assert_allclose(
            snap.conserved_total(small_cube_mesh),
            cube_state.conserved_total(small_cube_mesh),
        )


def _make_checkpoint(n=20, iteration=5, **meta):
    rng = np.random.default_rng(0)
    return Checkpoint(
        iteration=iteration,
        U=rng.random((n, 4)),
        acc=rng.random((n, 4)),
        Ustar=rng.random((n, 4)),
        acc2=rng.random((n, 4)),
        tau=rng.integers(0, 4, n).astype(np.int32),
        domain=rng.integers(0, 3, n).astype(np.int32),
        domain_process=np.array([0, 0, 1], dtype=np.int32),
        dt_min=1e-4,
        dt_ref=2e-4,
        num_processes=2,
        meta=dict(meta),
    )


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        ck = _make_checkpoint(strategy="MC_TL", seed=4)
        manifest = save_checkpoint(tmp_path, ck)
        assert manifest.name == "ckpt_00000005.json"
        loaded = load_checkpoint(manifest)
        for name in ("U", "acc", "Ustar", "acc2", "tau", "domain",
                     "domain_process"):
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(ck, name)
            )
        assert loaded.iteration == 5
        assert loaded.dt_min == ck.dt_min and loaded.dt_ref == ck.dt_ref
        assert loaded.num_domains == 3 and loaded.num_processes == 2
        assert loaded.meta == {"strategy": "MC_TL", "seed": 4}

    def test_load_accepts_npz_and_basename(self, tmp_path):
        save_checkpoint(tmp_path, _make_checkpoint())
        base = tmp_path / "ckpt_00000005"
        assert load_checkpoint(base.with_suffix(".npz")).iteration == 5
        assert load_checkpoint(base).iteration == 5

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            load_checkpoint(tmp_path / "ckpt_00000001.json")

    def test_corrupt_manifest(self, tmp_path):
        p = tmp_path / "ckpt_00000001.json"
        p.write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        path = save_checkpoint(tmp_path, _make_checkpoint())
        manifest = json.loads(path.read_text())
        manifest["version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_arrays_file(self, tmp_path):
        path = save_checkpoint(tmp_path, _make_checkpoint())
        path.with_suffix(".npz").unlink()
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_truncated_arrays(self, tmp_path):
        path = save_checkpoint(tmp_path, _make_checkpoint())
        npz = path.with_suffix(".npz")
        npz.write_bytes(npz.read_bytes()[:40])
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_inconsistent_cell_count(self, tmp_path):
        path = save_checkpoint(tmp_path, _make_checkpoint())
        manifest = json.loads(path.read_text())
        manifest["num_cells"] = 7
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)

    def test_no_tmp_files_left_behind(self, tmp_path):
        save_checkpoint(tmp_path, _make_checkpoint())
        assert not list(tmp_path.glob("*.tmp"))

    def test_find_latest(self, tmp_path):
        assert find_latest_checkpoint(tmp_path / "nope") is None
        assert find_latest_checkpoint(tmp_path) is None
        for it in (2, 10, 7):
            save_checkpoint(tmp_path, _make_checkpoint(iteration=it))
        (tmp_path / "ckpt_garbage.json").write_text("{}")  # ignored
        latest = find_latest_checkpoint(tmp_path)
        assert latest is not None and latest.name == "ckpt_00000010.json"
