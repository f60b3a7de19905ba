"""Thread-parallel execution of the finite-volume task graph.

Runs :meth:`~repro.solver.runner.TaskDistributedSolver.run_task` — the
solver's own task body, the one the serial timed loop runs — on the
:class:`~repro.runtime.executor.ThreadedExecutor`'s worker threads.
Nothing here re-implements a kernel: flux evaluation (the heavy,
GIL-releasing part) runs fully concurrently, and
:func:`~repro.solver.lts.accumulate_face_fluxes` serializes only its
accumulator deposits, under the state's own lock (two face tasks from
different domains may deposit into the same boundary cell; the
dependency structure leaves those commutative additions unordered, as
FLUSEPA does with StarPU's data reductions).  Cell updates take no
lock: every cell task owns a disjoint cell set, ordered after its
deposits by the task dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resilience.faults import FaultPlan
from ..solver.lts import LTSState
from ..solver.runner import TaskDistributedSolver
from .executor import ExecutionResult, RetryPolicy, ThreadedExecutor

__all__ = ["ParallelSolverRun", "run_iteration_threaded"]


@dataclass
class ParallelSolverRun:
    """Result of a threaded solver iteration.

    Attributes
    ----------
    result:
        The executor's trace and elapsed wall-clock.
    state:
        The advanced solver state (identical, up to float addition
        order, to a serial run).
    """

    result: ExecutionResult
    state: LTSState


def run_iteration_threaded(
    solver: TaskDistributedSolver,
    state: LTSState,
    *,
    cores_per_process: int = 2,
    fault_plan: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
    watchdog: float | None = None,
) -> ParallelSolverRun:
    """Run one solver iteration on real worker threads, one worker
    group per process of the solver's decomposition.

    Parameters
    ----------
    solver:
        A prepared :class:`TaskDistributedSolver` (its DAG and object
        sets are reused).
    cores_per_process:
        Threads per group.
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`; the task
        bodies are wrapped with its injected faults (NaN poisoning
        targets the stage-1 accumulators).
    retry, watchdog:
        Forwarded to :class:`~repro.runtime.executor.ThreadedExecutor`.

    Returns
    -------
    :class:`ParallelSolverRun` with the real execution trace.
    """
    def task_fn(i: int) -> None:
        solver.run_task(i, state)

    fn = task_fn
    if fault_plan is not None:
        fn = fault_plan.wrap(task_fn, poison_targets=(state.acc,))
    executor = ThreadedExecutor(
        solver.dag, solver.decomp.num_processes, cores_per_process, fn,
        retry=retry, watchdog=watchdog,
    )
    result = executor.run()
    return ParallelSolverRun(result=result, state=state)
