"""Multiprocess chaos suite for the cross-process artifact store and
the ``repro serve`` daemon.

Round 1 hammers one shared store with N concurrent worker *processes*
(real ``subprocess`` children, not threads — the store's claims are
process-level) while injecting, via the existing seeded
:mod:`repro.resilience.faults` machinery, the crashes the store must
survive:

* ``kill_claim``  — the worker dies (``os._exit``) while holding a won
  claim, leaving the claim file behind (the flock dies with it);
* ``kill_write``  — the worker dies mid-publish, leaving a partial
  ``.tmp`` file;
* ``truncate``    — the worker publishes, then truncates the ``.bin``
  (a torn artifact readers must quarantine, never return);
* ``skew``        — the worker's clock (``locking._now``) runs an hour
  slow, so every heartbeat it writes looks ancient and live waiters
  depose it (its publish must then be dropped by the token guard).

Invariants asserted over the merged worker event logs:

* **at most one successful publish per digest** (claims + token guard);
* **no torn reads**: every read's content hash equals the digest's
  deterministic expected content;
* **stale claims are reclaimed**: the kill-mid-claim leftovers are
  taken over (logged) by later winners;
* after ``doctor(flush=True)``, a clean round of workers sees a
  healthy store and full hits.

Round 2 is the serve acceptance: a ``repro serve`` round-trip in which
the first attempt's worker process is killed mid-job by a seeded
:class:`FaultPlan` and the retry completes against the artifacts the
dead attempt already published.

Each worker runs ``python tests/test_store_chaos.py worker ...`` — the
``__main__`` block at the bottom dispatches to :func:`worker_main`.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
if str(REPO_SRC) not in sys.path:  # worker invocation
    sys.path.insert(0, str(REPO_SRC))

STAGE = "chaos"
N_DIGESTS = 10
CLAIM_TTL = 0.75

FAULTS = ("none", "kill_claim", "kill_write", "truncate", "skew")


def chaos_digests(n: int = N_DIGESTS) -> list[str]:
    return [
        hashlib.sha256(f"chaos-digest-{i}".encode()).hexdigest()[:40]
        for i in range(n)
    ]


def expected_content(digest: str) -> np.ndarray:
    """The deterministic payload every worker must agree on."""
    rng = np.random.default_rng(int(digest[:12], 16))
    return rng.random(256)


def content_hash(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Worker body (subprocess side)
# ----------------------------------------------------------------------
def worker_main(argv: list[str]) -> int:
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--events", required=True)
    ap.add_argument("--worker-id", type=int, required=True)
    ap.add_argument("--fault", choices=FAULTS, default="none")
    ap.add_argument("--fault-rate", type=float, default=0.0)
    ap.add_argument("--ttl", type=float, default=CLAIM_TTL)
    args = ap.parse_args(argv)

    warnings.simplefilter("ignore")  # claim takeovers are expected here

    from repro.pipeline import locking
    from repro.pipeline.store import ArtifactStore
    from repro.resilience.faults import FaultPlan, FaultSpec

    if args.fault == "skew":
        # This process's clock runs an hour slow: every heartbeat it
        # writes is immediately stale to the other workers.
        locking._now = lambda: __import__("time").time() - 3600.0

    events_path = Path(args.events)

    def log(digest: str, event: str, **extra) -> None:
        record = {
            "worker": args.worker_id,
            "fault": args.fault,
            "digest": digest,
            "event": event,
            **extra,
        }
        with open(events_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    # Seeded chaos decisions via the repo's fault-injection machinery:
    # one draw per digest index, deterministic in (seed, task).
    plan = FaultPlan(
        specs=[FaultSpec(kind="transient", rate=args.fault_rate)],
        seed=args.worker_id,
    )

    store = ArtifactStore(
        args.root, claim_ttl=args.ttl, lock_timeout=60.0
    )
    digests = chaos_digests()
    order = np.random.default_rng(args.worker_id).permutation(len(digests))

    for idx in order:
        digest = digests[int(idx)]
        inject = args.fault != "none" and bool(plan.decide(int(idx), 0))
        for _round in range(6):
            payload = store.disk_read(STAGE, digest)
            if payload is not None:
                log(
                    digest,
                    "read",
                    sha=content_hash(payload.arrays["x"]),
                )
                break
            lease = store.claim(STAGE, digest)
            if lease is None:  # locking disabled — should not happen
                log(digest, "uncoordinated")
                break
            if lease.role == "reader":
                lease.release()
                continue
            if lease.reclaimed:
                log(digest, "reclaimed", deposed=lease.deposed_holder)
            if inject and args.fault == "kill_claim":
                log(digest, "kill_claim")
                os._exit(77)  # die holding the claim
            arr = expected_content(digest)
            if inject and args.fault == "kill_write":
                tmp = (
                    Path(args.root)
                    / STAGE
                    / f"{digest}.bin.tmp{os.getpid()}"
                )
                tmp.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_bytes(b"torn mid-write")
                log(digest, "kill_write")
                os._exit(78)  # die mid-publish, tmp left behind
            path = store.disk_write(
                STAGE,
                digest,
                {"x": arr},
                sidecar={"meta": {}},
                lease=lease,
            )
            if path is None:
                # Deposed while computing (skew): token guard dropped it.
                log(digest, "publish_dropped")
                lease.release()
                continue
            if not lease.still_owner():
                # Raced with a takeover in the publish window; the
                # takeover also publishes (identical bytes).
                log(digest, "published_raced", sha=content_hash(arr))
                lease.release()
                break
            if inject and args.fault == "truncate":
                payload = Path(args.root) / STAGE / f"{digest}.bin"
                with open(payload, "r+b") as fh:
                    fh.truncate(max(1, payload.stat().st_size // 2))
                log(digest, "truncated")
                lease.release()
                inject = False  # verify loop must now quarantine+heal
                continue
            log(digest, "published", sha=content_hash(arr))
            lease.release()
            break
    log("-", "done", stats=vars(store.stats))
    return 0


# ----------------------------------------------------------------------
# Driver (pytest side)
# ----------------------------------------------------------------------
def _spawn_worker(
    root: Path, events_dir: Path, worker_id: int, fault: str, rate: float
) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "worker",
            "--root",
            str(root),
            "--events",
            str(events_dir / f"worker{worker_id}.jsonl"),
            "--worker-id",
            str(worker_id),
            "--fault",
            fault,
            "--fault-rate",
            str(rate),
            "--ttl",
            str(CLAIM_TTL),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _collect_events(events_dir: Path) -> list[dict]:
    events: list[dict] = []
    for path in sorted(events_dir.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                events.append(json.loads(line))
    return events


class TestStoreChaos:
    def test_concurrent_workers_with_injected_crashes(self, tmp_path):
        """Six processes, four fault modes, one store — the invariants
        must hold in the merged event log."""
        root = tmp_path / "store"
        events_dir = tmp_path / "events"
        events_dir.mkdir()
        plan = [
            (0, "kill_claim", 1.0),
            (1, "kill_write", 1.0),
            (2, "truncate", 0.6),
            (3, "skew", 0.0),  # skew is process-wide, not per-digest
            (4, "none", 0.0),
            (5, "none", 0.0),
        ]
        # Start barrier: the crash workers inject on their first *won*
        # claim, so they run (concurrently with each other) against a
        # store nobody publishes to and must have died before the
        # healthy workers start.  Otherwise fast peers can publish every
        # digest first, the crash worker only ever reads and exits 0 —
        # a scheduling assumption, not a store property.  The peers then
        # race each other over the wreckage: a dead holder's claim and
        # a torn tmp file.
        expected_exit = {"kill_claim": 77, "kill_write": 78}
        for crashing in (True, False):
            wave = [p for p in plan if (p[1] in expected_exit) == crashing]
            procs = [
                _spawn_worker(root, events_dir, wid, fault, rate)
                for wid, fault, rate in wave
            ]
            for (wid, fault, _), proc in zip(wave, procs):
                out, err = proc.communicate(timeout=180)
                assert proc.returncode == expected_exit.get(fault, 0), (
                    fault,
                    err.decode(),
                )

        events = _collect_events(events_dir)
        digests = chaos_digests()
        by_digest: dict[str, list[dict]] = {d: [] for d in digests}
        for ev in events:
            if ev["digest"] in by_digest:
                by_digest[ev["digest"]].append(ev)

        # -- at most one successful publish per digest ----------------
        for digest, evs in by_digest.items():
            published = [e for e in evs if e["event"] == "published"]
            truncated = [e for e in evs if e["event"] == "truncated"]
            # one initial publish, plus one re-publish per sabotaged
            # artifact (quarantine + heal); never a duplicate beyond
            # what the injected corruption forced.
            assert 1 <= len(published) <= 1 + len(truncated), (
                digest,
                evs,
            )
            if not truncated:
                assert len(published) == 1, (digest, evs)

        # -- no torn reads: every observed content is the expected one
        for digest, evs in by_digest.items():
            want = content_hash(expected_content(digest))
            for ev in evs:
                if "sha" in ev:
                    assert ev["sha"] == want, ev

        # -- the killed workers' claims were reclaimed ----------------
        reclaims = [e for e in events if e["event"] == "reclaimed"]
        assert reclaims, "no stale claim was ever reclaimed"

        # -- the skewed worker was deposed, not double-published ------
        dropped = [
            e
            for e in events
            if e["event"] in ("publish_dropped", "published_raced")
            and e["fault"] == "skew"
        ]
        # (not guaranteed every run — the skewed worker may only have
        # won uncontended digests — but its publishes must never exceed
        # the per-digest invariant, asserted above.)
        del dropped

        # -- doctor: kill_write litter is visible, then flushable -----
        from repro.pipeline.store import ArtifactStore

        store = ArtifactStore(root, claim_ttl=CLAIM_TTL)
        report = store.doctor(flush=False)
        assert report.entries == len(digests)
        assert report.tmp_files, "kill_write left no visible tmp litter"
        flushed = store.doctor(flush=True)
        assert flushed.flushed > 0
        healthy = store.doctor(flush=False)
        assert healthy.healthy, healthy.summary()

        # -- round 2: a clean pass over the healed store --------------
        events2 = tmp_path / "events2"
        events2.mkdir()
        procs = [
            _spawn_worker(root, events2, 10 + i, "none", 0.0)
            for i in range(4)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        clean = _collect_events(events2)
        reads = [e for e in clean if e["event"] == "read"]
        assert len(reads) == 4 * len(digests)  # pure hits, no computes
        assert not [e for e in clean if e["event"] == "published"]


class TestServeChaosRoundTrip:
    def test_injected_worker_death_is_retried(self, tmp_path):
        """Acceptance: a ``repro serve`` round-trip survives one
        injected worker death via retry, reusing the dead attempt's
        published stages."""
        from repro.resilience.faults import FaultPlan, FaultSpec
        from repro.runtime.executor import RetryPolicy
        from repro.service import ServeDaemon, ServiceClient

        spool = tmp_path / "spool"
        store = tmp_path / "store"
        client = ServiceClient(spool)
        job_id = client.submit(
            "characteristics",
            options={"scale": 6, "domains": 6, "processes": 3, "cores": 2},
            through="partition",
        )
        # rate 1.0, first_attempt_only: attempt 0 is killed after its
        # first completed stage, attempt 1 is deterministically clean.
        plan = FaultPlan(
            specs=[FaultSpec(kind="transient", rate=1.0)], seed=11
        )
        daemon = ServeDaemon(
            spool,
            store_root=store,
            retry=RetryPolicy(max_retries=2, backoff=0.0),
            watchdog=60.0,
            fault_plan=plan,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            processed = daemon.serve_forever(max_jobs=1, idle_timeout=5.0)
        assert processed == 1
        assert plan.injected["worker_death"] == 1

        status = client.wait(job_id, timeout=10.0)
        assert status.state == "done"
        assert status.attempts == 2  # death + successful retry
        result = client.result(job_id)
        stages = result["stages"]
        assert [s["stage"] for s in stages] == [
            "mesh",
            "levels",
            "partition",
        ]
        # The retry reused what the dead attempt had already published.
        assert stages[0]["cache"] == "disk"


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "worker":
        sys.exit(worker_main(sys.argv[2:]))
    raise SystemExit(f"usage: {sys.argv[0]} worker ...")
