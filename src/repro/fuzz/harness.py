"""Differential fuzzing harness.

:func:`run_fuzz` drives seeded adversarial cases
(:mod:`repro.fuzz.generators`) through these families of checks:

* **contract checks** — :func:`repro.graph.partition.partition_graph`
  and every mesh strategy in :data:`repro.partitioning.strategies.STRATEGIES`
  must return a contract-clean result, degrade with non-default
  provenance *and* a :class:`~repro.graph.contracts.PartitionQualityWarning`,
  or raise a typed error — never silently return garbage;
* **differential checks** — the vectorized hot kernels
  (:func:`~repro.graph.coarsen.heavy_edge_matching`,
  :func:`~repro.graph.refine.fm_refine`) are compared against the
  pre-optimization oracles in :mod:`repro.graph.reference` on the same
  inputs: matchings must be valid involutions along edges with at
  least 80 % of the oracle's matched weight, and FM must be
  deterministic, internally consistent (incremental cut == recomputed
  cut) and never worse than the oracle on both cut and worst
  imbalance beyond small slack;
* **streaming-dual differentials** — every mesh case's dual graph is
  streamed at an adversarial chunk size and must equal the mesh's own
  :meth:`~repro.mesh.structures.Mesh.cell_adjacency` array for array;
* **DAG checks** — every mesh decomposition is expanded into Euler and
  Heun task graphs and audited with
  :func:`repro.taskgraph.verify.verify_dag`;
* **downstream differentials** — per seed, one decomposition is pushed
  through the vectorized Algorithm 1 generator and the low-overhead
  FLUSIM engine and compared against the seed oracles
  (:mod:`repro.taskgraph.reference`, :mod:`repro.flusim.reference`):
  DAGs must match bit-identically up to canonical edge order
  (including ``scheme="heun"`` and ``iterations > 1``) and traces must
  be bit-identical across schedulers, cluster shapes and a
  non-free :class:`~repro.flusim.commmodel.CommModel`.

Failures are collected (not raised) so one run reports everything; the
``repro fuzz`` CLI exits non-zero when any failure survives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..graph.coarsen import heavy_edge_matching
from ..graph.contracts import PartitionQualityWarning, check_partition_contract
from ..graph.csr import CSRGraph
from ..graph.metrics import edge_cut, imbalance
from ..graph.partition import partition_graph
from ..graph.reference import fm_refine_ref, heavy_edge_matching_ref
from ..graph.refine import fm_refine
from ..pipeline import TaskGraphConfig, TaskGraphStage
from ..resilience.errors import PartitionError, PartitionQualityError
from ..taskgraph.verify import verify_dag
from .generators import GraphCase, MeshCase, make_graph_case, make_mesh_case

__all__ = ["FuzzFailure", "FuzzReport", "run_fuzz"]


@dataclass
class FuzzFailure:
    """One check that did not hold."""

    seed: int
    case: str
    check: str
    detail: str

    def __str__(self) -> str:
        return f"[seed {self.seed}] {self.case} / {self.check}: {self.detail}"


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzzing run."""

    seeds: int = 0
    cases: int = 0
    contract_checks: int = 0
    differential_checks: int = 0
    dag_checks: int = 0
    rejected_inputs: int = 0  # typed-error rejections (expected)
    degraded_results: int = 0  # non-primary provenance (expected)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every check held."""
        return not self.failures

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"fuzz: {self.seeds} seed(s), {self.cases} case(s), "
            f"{self.contract_checks} contract / "
            f"{self.differential_checks} differential / "
            f"{self.dag_checks} DAG check(s)",
            f"  typed rejections: {self.rejected_inputs}, "
            f"degraded (non-primary provenance): {self.degraded_results}",
            f"  failures: {len(self.failures)}",
        ]
        lines.extend(f"  {f}" for f in self.failures)
        return "\n".join(lines)


def _matched_weight(g: CSRGraph, match: np.ndarray) -> float:
    src = g.edge_sources()
    sel = (match[src] == g.adjncy) & (src < g.adjncy)
    return float(g.adjwgt[sel].sum())


def _check_matching(
    report: FuzzReport, seed: int, case: str, g: CSRGraph
) -> None:
    """Differential: vectorized HEM vs the reference greedy loop."""
    report.differential_checks += 1
    fast = heavy_edge_matching(g, np.random.default_rng(seed))
    ref = heavy_edge_matching_ref(g, np.random.default_rng(seed))

    def fail(check: str, detail: str) -> None:
        report.failures.append(FuzzFailure(seed, case, check, detail))

    if not np.array_equal(fast[fast], np.arange(g.num_vertices)):
        fail("hem-involution", "match[match[v]] != v for some v")
        return
    matched = np.flatnonzero(fast != np.arange(g.num_vertices))
    for v in matched:
        u = fast[v]
        if u not in g.adjncy[g.xadj[v] : g.xadj[v + 1]]:
            fail("hem-adjacency", f"matched pair ({v}, {u}) is not an edge")
            return
    again = heavy_edge_matching(g, np.random.default_rng(seed))
    if not np.array_equal(fast, again):
        fail("hem-determinism", "same seed produced different matchings")
    wf, wr = _matched_weight(g, fast), _matched_weight(g, ref)
    if wr > 0 and wf < 0.8 * wr:
        fail(
            "hem-weight",
            f"fast matched weight {wf:g} < 0.8 × reference {wr:g}",
        )


def _check_fm(
    report: FuzzReport, seed: int, case: str, g: CSRGraph
) -> None:
    """Differential: incremental-gain FM vs the reference per-pass FM."""
    if g.num_vertices < 2:
        return
    report.differential_checks += 1
    rng = np.random.default_rng(seed)
    part0 = (rng.random(g.num_vertices) < 0.5).astype(np.int32)
    tol = 1.10

    def run(fn, check_cut=False):
        kwargs = {"check_cut": True} if check_cut else {}
        p = fn(
            g,
            part0.copy(),
            imbalance_tol=tol,
            rng=np.random.default_rng(seed),
            **kwargs,
        )
        return p, edge_cut(g, p), float(imbalance(g, p, 2).max())

    def fail(check: str, detail: str) -> None:
        report.failures.append(FuzzFailure(seed, case, check, detail))

    try:
        fast, fast_cut, fast_imb = run(fm_refine, check_cut=True)
    except PartitionError as exc:
        fail("fm-internal", f"check_cut tripped: {exc}")
        return
    _, ref_cut, ref_imb = run(fm_refine_ref)
    cut0 = edge_cut(g, part0)
    imb0 = float(imbalance(g, part0, 2).max())

    again, again_cut, _ = run(fm_refine)
    if not np.array_equal(fast, again) or again_cut != fast_cut:
        fail("fm-determinism", "same seed produced different refinements")
    # FM keeps the best prefix: it must never leave the partition worse
    # than it started on *both* axes.
    if fast_cut > cut0 + 1e-9 and fast_imb > imb0 + 1e-9:
        fail(
            "fm-monotonic",
            f"cut {cut0:g}→{fast_cut:g} and imbalance "
            f"{imb0:g}→{fast_imb:g} both worsened",
        )
    # Quality parity with the oracle (generous slack: both are
    # heuristics with different tie-breaking).
    if fast_imb <= tol < ref_imb - 1e-9:
        return  # fast repaired balance where the oracle did not
    if fast_cut > 2.0 * ref_cut + 4.0:
        fail(
            "fm-vs-reference",
            f"fast cut {fast_cut:g} ≫ reference cut {ref_cut:g}",
        )


def _check_partition_result(
    report: FuzzReport,
    seed: int,
    case: str,
    g: CSRGraph,
    nparts: int,
) -> None:
    """Contract: partition_graph is clean, degraded-with-warning, or a
    typed rejection — and strict mode raises instead of degrading."""
    report.contract_checks += 1

    def fail(check: str, detail: str) -> None:
        report.failures.append(FuzzFailure(seed, case, check, detail))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = partition_graph(g, nparts, seed=seed)
        except (ValueError, PartitionError) as exc:
            report.rejected_inputs += 1
            if nparts <= g.num_vertices and nparts >= 1:
                fail(
                    "contract-reject",
                    f"valid nparts={nparts} rejected: {exc}",
                )
            return
    quality = [
        w for w in caught if issubclass(w.category, PartitionQualityWarning)
    ]
    violations = check_partition_contract(g, res.part, res.nparts)
    if violations:
        if res.provenance == "primary" and not tuple(res.violations):
            fail(
                "contract-silent",
                "out-of-contract result with default provenance and no "
                f"recorded violations: {violations}",
            )
        elif not quality:
            fail(
                "contract-warning",
                f"degraded result ({res.provenance}) emitted no "
                "PartitionQualityWarning",
            )
    if res.provenance != "primary":
        report.degraded_results += 1
        # strict mode must refuse to degrade silently for the same input
        # ... unless the degradation was input-stage (components), which
        # strict mode still permits with its warning.
        if res.provenance in ("relaxed", "sfc", "block"):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    partition_graph(g, nparts, seed=seed, strict=True)
            except PartitionQualityError:
                pass
            else:
                fail(
                    "contract-strict",
                    f"strict=True did not raise though the default run "
                    f"degraded to {res.provenance!r}",
                )


def _fuzz_graph_case(report: FuzzReport, seed: int, case: GraphCase) -> None:
    name = f"graph:{case.name}"
    for nparts in case.nparts:
        _check_partition_result(report, seed, name, case.graph, nparts)
    if case.graph.num_vertices <= 400:
        _check_matching(report, seed, name, case.graph)
        _check_fm(report, seed, name, case.graph)


def _downstream_case(seed: int) -> tuple[str, int | None]:
    """The (policy, cores) pair seed ``seed`` simulates.  One pair per
    seed keeps the run bounded while the campaign sweeps the whole
    matrix: every pair once in each run of 18 consecutive seeds."""
    from ..flusim.schedulers import SCHEDULERS

    n = len(SCHEDULERS)
    return SCHEDULERS[seed % n], (1, 2, None)[seed // n % 3]


def _check_downstream(
    report: FuzzReport, seed: int, name: str, mesh, tau, decomp
) -> None:
    """Differential: vectorized Algorithm 1 + low-overhead FLUSIM vs
    the retained seed oracles — DAG and trace bit-equality."""
    from ..flusim import ClusterConfig, CommModel, simulate, simulate_ref
    from ..flusim.trace import trace_differences
    from ..taskgraph import generate_task_graph, generate_task_graph_ref
    from ..taskgraph.verify import dag_differences

    def fail(check: str, detail: str) -> None:
        report.failures.append(FuzzFailure(seed, name, check, detail))

    dag = None
    for scheme, iters in (("euler", 1), ("heun", 2)):
        report.differential_checks += 1
        fast = generate_task_graph(
            mesh, tau, decomp, scheme=scheme, iterations=iters
        )
        ref = generate_task_graph_ref(
            mesh, tau, decomp, scheme=scheme, iterations=iters
        )
        diffs = dag_differences(fast, ref)
        if diffs:
            fail(f"taskgraph-{scheme}x{iters}", "; ".join(diffs[:3]))
        elif scheme == "euler":
            dag = fast
    if dag is None:
        return

    scheduler, cores = _downstream_case(seed)
    cluster = ClusterConfig(decomp.num_processes, cores)
    for comm in (None, CommModel(latency=0.05, bandwidth=32.0)):
        report.differential_checks += 1
        got = simulate(
            dag, cluster, scheduler=scheduler, comm=comm, seed=seed
        )
        want = simulate_ref(
            dag, cluster, scheduler=scheduler, comm=comm, seed=seed
        )
        diffs = trace_differences(got, want)
        if diffs:
            fail(
                f"flusim-{scheduler}-{'comm' if comm else 'nocomm'}",
                "; ".join(diffs[:3]),
            )


def _check_streaming_dual(
    report: FuzzReport, seed: int, name: str, mesh
) -> None:
    """Differential: the streaming dual builder vs the adjacency the
    mesh materializes itself (:meth:`Mesh.cell_adjacency`), at an
    adversarial (non-power-of-two) chunk size."""
    from ..mesh.dual import _streaming_adjacency

    def fail(check: str, detail: str) -> None:
        report.failures.append(FuzzFailure(seed, name, check, detail))

    chunk = 1 + seed % 7  # tiny odd windows stress the cursor carry
    xadj, adjncy, face_of = mesh.cell_adjacency()
    oracle_wgt = {
        "unit": np.ones(len(adjncy)),
        "area": mesh.face_area[face_of],
    }
    for edge_weight, ref_wgt in oracle_wgt.items():
        report.differential_checks += 1
        got = _streaming_adjacency(
            mesh, edge_weight=edge_weight, chunk_faces=chunk
        )
        same = all(
            np.array_equal(r, g)
            for r, g in zip((xadj, adjncy, ref_wgt), got)
        )
        if not same:
            fail(
                f"dual-streaming-{edge_weight}",
                f"streaming dual (chunk_faces={chunk}) diverged from "
                "the mesh's cell_adjacency",
            )


def _fuzz_mesh_case(report: FuzzReport, seed: int, case: MeshCase) -> None:
    from ..partitioning.strategies import STRATEGIES, make_decomposition

    name = f"mesh:{case.name}"
    _check_streaming_dual(report, seed, name, case.mesh)
    n = case.mesh.num_cells
    strategies = sorted(STRATEGIES)
    downstream_strat = strategies[seed % len(strategies)]

    def fail(check: str, detail: str) -> None:
        report.failures.append(FuzzFailure(seed, name, check, detail))

    for ndom in case.num_domains:
        for strat in strategies:
            report.contract_checks += 1
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    decomp = make_decomposition(
                        case.mesh, case.tau, ndom, max(1, ndom // 2),
                        strategy=strat, seed=seed,
                    )
                except (ValueError, PartitionError) as exc:
                    report.rejected_inputs += 1
                    if 1 <= ndom <= n:
                        fail(
                            f"{strat}-reject",
                            f"valid num_domains={ndom} rejected: {exc}",
                        )
                    continue
            dom = decomp.domain
            if dom.min() < 0 or dom.max() >= ndom:
                fail(f"{strat}-labels", "domain label out of range")
                continue
            if len(np.unique(dom)) != ndom:
                fail(f"{strat}-empty", "empty domain produced")
                continue
            if ndom > n:
                fail(
                    f"{strat}-overcommit",
                    f"{ndom} domains accepted for {n} cells",
                )
                continue
            for scheme in ("euler", "heun"):
                report.dag_checks += 1
                # Same typed chain link the pipeline runs (fuzz meshes
                # are one-shot, so no artifact store is involved).
                dag = TaskGraphStage.compute(
                    TaskGraphConfig(scheme=scheme),
                    case.mesh,
                    case.tau,
                    decomp,
                )
                bad = verify_dag(
                    dag, case.mesh, case.tau, scheme=scheme
                )
                if bad:
                    fail(f"{strat}-dag-{scheme}", "; ".join(bad))
            if strat == downstream_strat:
                _check_downstream(
                    report, seed, name, case.mesh, case.tau, decomp
                )


def run_fuzz(
    seeds: int = 25,
    *,
    start: int = 0,
    progress=None,
) -> FuzzReport:
    """Run the adversarial fuzzing campaign over ``seeds`` seeds.

    Every seed deterministically generates one graph case and one mesh
    case and pushes them through the contract, differential and DAG
    checks.  ``progress`` is an optional callback ``(seed_index,
    total)`` for CLI feedback.

    Returns a :class:`FuzzReport`; ``report.ok`` is the pass/fail
    verdict.
    """
    report = FuzzReport()
    for i in range(seeds):
        seed = start + i
        report.seeds += 1
        if progress is not None:
            progress(i, seeds)

        rng = np.random.default_rng([0xF022, seed])
        gcase = make_graph_case(rng)
        report.cases += 1
        _fuzz_graph_case(report, seed, gcase)

        mcase = make_mesh_case(rng)
        report.cases += 1
        _fuzz_mesh_case(report, seed, mcase)
    return report
