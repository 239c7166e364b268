"""Extension experiment: write-pause (latency-tail) reduction.

Not a numbered figure, but the paper's own motivation (§I): compaction
speed bounds write pauses.  We insert a fixed workload under SCP and
PCP and compare the per-write virtual latency distribution, read off
the same system run that gives Fig 10 its throughput — the p50 is the
WAL+memtable cost and is identical, while the extreme tail is a
compaction pause and shrinks by roughly the compaction-bandwidth
factor under PCP.
"""

from __future__ import annotations

from ...core.procedures import ProcedureSpec
from ..runner import run_insert_workload
from .base import ExperimentResult
from .fig10 import SUBTASK_BYTES, pcp_spec_for

__all__ = ["run"]


def run(
    n: int = 15_000,
    device: str = "ssd",
    distribution: str = "uniform",
) -> ExperimentResult:
    specs = {
        "scp": ProcedureSpec.scp(subtask_bytes=SUBTASK_BYTES),
        "pcp": pcp_spec_for(device),
    }
    rows = []
    for label, spec in specs.items():
        result = run_insert_workload(
            n, spec, device=device, distribution=distribution
        )
        rows.append(
            [
                label,
                result.percentile(50),
                result.percentile(99),
                result.percentile(99.9),
                result.max_us,
                result.stalled_ops(threshold_us=1000.0),
            ]
        )
    return ExperimentResult(
        name=f"Write pauses ({device}): per-op virtual latency, SCP vs PCP",
        headers=["procedure", "p50 us", "p99 us", "p99.9 us", "max us",
                 "ops stalled >1ms"],
        rows=rows,
        notes=(
            "paper §I: compactions cause write pauses; pipelining shortens "
            "the pause tail by the compaction-bandwidth factor (p50 is the "
            "WAL+memtable path and is unchanged)"
        ),
    )
