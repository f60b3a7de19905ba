"""Task-graph generation (Algorithm 1), DAG structure and analytics."""

from .analysis import work_by_process_subiteration
from .dag import TaskDAG, canonical_edges
from .generation import classify_objects, generate_task_graph
from .reference import generate_task_graph_ref
from .task import Locality, ObjectType, TaskArrays, TaskView
from .verify import dag_differences, verify_dag

__all__ = [
    "verify_dag",
    "dag_differences",
    "canonical_edges",
    "generate_task_graph_ref",
    "TaskDAG",
    "TaskArrays",
    "TaskView",
    "ObjectType",
    "Locality",
    "generate_task_graph",
    "classify_objects",
    "work_by_process_subiteration",
]
