"""A small StarPU-like threaded task runtime: dependency-driven
execution of the task graph on real worker threads, with the solver
kernels as task bodies, hardened with per-task retry and a hang
watchdog (see :mod:`repro.resilience`)."""

from .executor import (
    ExecutionHealth,
    ExecutionResult,
    RetryPolicy,
    ThreadedExecutor,
)
from .parallel_solver import ParallelSolverRun, run_iteration_threaded

__all__ = [
    "ThreadedExecutor",
    "ExecutionResult",
    "ExecutionHealth",
    "RetryPolicy",
    "run_iteration_threaded",
    "ParallelSolverRun",
]
