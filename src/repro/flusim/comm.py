"""Communication-volume estimation.

FLUSIM does not simulate communication, but its volume can be
estimated: "a communication is considered to be an edge of the task
graph connecting two nodes whose domains are distributed across two
different processes" (paper §VI, Fig. 11b).  We provide that count.
"""

from __future__ import annotations

import numpy as np

from ..taskgraph.dag import TaskDAG

__all__ = ["taskgraph_comm_volume"]


def taskgraph_comm_volume(dag: TaskDAG) -> int:
    """Number of task-graph edges crossing a process boundary — the
    paper's Fig. 11b estimate."""
    if dag.num_edges == 0:
        return 0
    p = dag.tasks.process
    return int(np.sum(p[dag.edges[:, 0]] != p[dag.edges[:, 1]]))

