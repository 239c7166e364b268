"""Benchmark harness: profiling, virtual-clock runs, experiment drivers."""

from .gantt import render_gantt
from .observer import VirtualClock
from .profiling import breakdown3, profile_steps_model
from .report import format_fractions, format_table, render_series
from .runner import SystemRunResult, run_insert_workload, scaled_options

__all__ = [
    "NetBenchResult",
    "SystemRunResult",
    "run_net_benchmark",
    "VirtualClock",
    "breakdown3",
    "format_fractions",
    "format_table",
    "profile_steps_model",
    "render_gantt",
    "render_series",
    "run_insert_workload",
    "scaled_options",
]


def __getattr__(name):
    # Lazy: netbench pulls in the server stack, and an eager import
    # would make ``python -m repro.bench.netbench`` double-import the
    # module it is executing (runpy warns).
    if name in ("NetBenchResult", "run_net_benchmark"):
        from . import netbench

        return getattr(netbench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
