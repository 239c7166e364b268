"""Execution backends: virtual time (one schedule loop) and the functional executor."""

from .simbackend import (
    PipelineConfig,
    ScheduleResult,
    SimJob,
    TimelineEvent,
    simulate_pipeline,
    simulate_scp,
)
from .threadbackend import ExecutionStats, execute_subtasks

__all__ = [
    "ExecutionStats",
    "PipelineConfig",
    "ScheduleResult",
    "SimJob",
    "TimelineEvent",
    "execute_subtasks",
    "simulate_pipeline",
    "simulate_scp",
]
