"""Per-process ready-queue scheduling strategies.

FLUSIM executes the task graph with list scheduling: each process owns
the tasks of its domains, and whenever one of its cores is free the
process's *strategy* picks the next ready task.  The paper's runs use
StarPU's **eager** policy (FIFO on ready order); the alternatives here
support the §III-C analysis that scheduling policy is *not* the root
cause of idleness, plus ablations.

The classes here define each policy and are what the seed oracle
(:mod:`repro.flusim.reference`) runs; :func:`repro.flusim.simulate`
keeps the same disciplines on plain containers inside its event loop.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "FifoQueue",
    "LifoQueue",
    "PriorityQueue",
    "RandomQueue",
    "make_scheduler",
    "SCHEDULERS",
]


class FifoQueue:
    """Eager/FIFO: run tasks in the order they became ready (StarPU's
    ``eager`` policy, the paper's default)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int]] = []
        self._counter = 0

    def push(self, task: int, ready_time: float) -> None:
        heapq.heappush(self._heap, (ready_time, self._counter, task))
        self._counter += 1

    def pop(self) -> int:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class LifoQueue:
    """LIFO: depth-first execution, maximizes locality."""

    def __init__(self) -> None:
        self._stack: list[int] = []

    def push(self, task: int, ready_time: float) -> None:
        self._stack.append(task)

    def pop(self) -> int:
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class PriorityQueue:
    """Static-priority queue: highest priority first.

    With priorities = DAG bottom levels this is the classic
    critical-path-first (HEFT-style) list scheduler; with priorities =
    task cost it becomes LJF/SJF.
    """

    def __init__(self, priority: np.ndarray | list[float]) -> None:
        # Python floats, converted once: a NumPy scalar index per push
        # costs more than the heap operation it feeds.  A list is used
        # as is, so a cluster's queues can share one conversion.
        self._priority = (
            priority if isinstance(priority, list) else _as_floats(priority)
        )
        self._heap: list[tuple[float, int, int]] = []
        self._counter = 0

    def push(self, task: int, ready_time: float) -> None:
        heapq.heappush(
            self._heap, (-self._priority[task], self._counter, task)
        )
        self._counter += 1

    def pop(self) -> int:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class RandomQueue:
    """Uniformly random choice among ready tasks (control strategy)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._items: list[int] = []

    def push(self, task: int, ready_time: float) -> None:
        self._items.append(task)

    def pop(self) -> int:
        i = int(self._rng.integers(len(self._items)))
        self._items[i], self._items[-1] = self._items[-1], self._items[i]
        return self._items.pop()

    def __len__(self) -> int:
        return len(self._items)


def _as_floats(values: np.ndarray) -> list[float]:
    return np.asarray(values, dtype=np.float64).tolist()


def make_scheduler(
    name: str,
    *,
    bottom_levels: np.ndarray | None = None,
    costs: np.ndarray | None = None,
    seed: int = 0,
):
    """Return a factory of fresh ready queues (``push``, ``pop``, ``len``).

    ``name`` ∈ ``{"eager", "lifo", "cp", "sjf", "ljf", "random"}``.
    ``cp`` needs ``bottom_levels``; ``sjf``/``ljf`` need ``costs``.
    """
    if name == "eager":
        return FifoQueue
    if name == "lifo":
        return LifoQueue
    if name == "cp":
        if bottom_levels is None:
            raise ValueError("cp scheduler needs bottom_levels")
        levels = _as_floats(bottom_levels)
        return lambda: PriorityQueue(levels)
    if name == "ljf":
        if costs is None:
            raise ValueError("ljf scheduler needs costs")
        longest = _as_floats(costs)
        return lambda: PriorityQueue(longest)
    if name == "sjf":
        if costs is None:
            raise ValueError("sjf scheduler needs costs")
        shortest = _as_floats(-np.asarray(costs))
        return lambda: PriorityQueue(shortest)
    if name == "random":
        rng = np.random.default_rng(seed)
        return lambda: RandomQueue(rng)
    raise ValueError(f"unknown scheduler {name!r}")


#: Names accepted by :func:`make_scheduler`.
SCHEDULERS = ("eager", "lifo", "cp", "sjf", "ljf", "random")
