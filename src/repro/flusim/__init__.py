"""FLUSIM: discrete-event simulation of the solver's task graph on a
virtual cluster (reimplementation of the paper's §III-A submodule)."""

from .cluster import UNBOUNDED, ClusterConfig
from .commmodel import CommModel
from .comm import taskgraph_comm_volume
from .metrics import ScheduleMetrics, schedule_metrics, subiteration_balance
from .reference import simulate_ref
from .schedulers import SCHEDULERS, make_scheduler
from .simulator import simulate
from .trace import Trace, trace_differences

__all__ = [
    "ClusterConfig",
    "UNBOUNDED",
    "CommModel",
    "simulate",
    "simulate_ref",
    "Trace",
    "trace_differences",
    "ScheduleMetrics",
    "schedule_metrics",
    "subiteration_balance",
    "make_scheduler",
    "SCHEDULERS",
    "taskgraph_comm_volume",
]
