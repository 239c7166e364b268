"""Compaction procedure definitions and the high-level run facade.

Four procedures (paper §III):

* **SCP** — Sequential Compaction Procedure: sub-tasks strictly one
  after another, steps S1..S7 in order.
* **PCP** — Pipelined Compaction Procedure: 3 stages (read | compute |
  write) over sub-tasks.
* **S-PPCP** — Storage-Parallel PCP: k devices serve S1/S7, sub-task i
  on device i mod k.
* **C-PPCP** — Computation-Parallel PCP: k workers serve S2–S6.

Each procedure can be *executed* (functionally, on real data, via the
thread backend — the DB's compaction engine) or *simulated* (virtual
time via the schedule loop in ``simbackend`` — the quantitative
experiments).  Both consume the same
:func:`repro.core.subtask.partition_subtasks` output, and execution
output is bit-identical across procedures.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..devices.base import Device
from ..lsm.options import Options
from ..lsm.table_reader import Table
from ..lsm.table_sink import TableSink
from ..lsm.version import FileMetaData
from ..obs.tracer import NULL_TRACER, Tracer
from .backends.simbackend import (
    PipelineConfig,
    ScheduleResult,
    SimJob,
    simulate_pipeline,
    simulate_scp,
)
from .backends.threadbackend import (
    ExecutionStats,
    InlineExecutor,
    execute_subtasks,
)
from .costmodel import DEFAULT_KV_BYTES, CostModel
from .subtask import SubTask, partition_subtasks

__all__ = [
    "SCP",
    "PCP",
    "SPPCP",
    "CPPCP",
    "ProcedureSpec",
    "compact_tables",
    "simulate_compaction",
    "subtask_jobs",
]

SCP = "scp"
PCP = "pcp"
SPPCP = "sppcp"
CPPCP = "cppcp"

_KINDS = (SCP, PCP, SPPCP, CPPCP)


@dataclass(frozen=True)
class ProcedureSpec:
    """Which procedure to run, and its parallelism parameters."""

    kind: str = SCP
    k: int = 1  # devices for S-PPCP, compute workers for C-PPCP
    subtask_bytes: int = 1 << 20
    queue_capacity: int = 2
    shared_io: bool = False
    handoff_overhead_s: float = 0.0
    #: functional execution backend: "thread" (default; GIL-bound
    #: compute) or "process" (C-PPCP's compute stage on worker
    #: processes — real parallelism, higher per-sub-task overhead).
    backend: str = "thread"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown procedure {self.kind!r}; one of {_KINDS}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.subtask_bytes < 1:
            raise ValueError("subtask_bytes must be >= 1")
        if self.kind in (SCP, PCP) and self.k != 1:
            raise ValueError(f"{self.kind} does not take k (got k={self.k})")
        if self.backend not in ("thread", "process"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.backend == "process" and self.kind == SCP:
            raise ValueError("SCP is sequential; no process backend")
        # The schedule's own checks, so a bad spec never reaches a DB.
        PipelineConfig(queue_capacity=self.queue_capacity,
                       handoff_overhead_s=self.handoff_overhead_s)

    # -- constructors --------------------------------------------------
    @classmethod
    def scp(cls, subtask_bytes: int = 1 << 20) -> "ProcedureSpec":
        return cls(SCP, subtask_bytes=subtask_bytes)

    @classmethod
    def pcp(cls, subtask_bytes: int = 1 << 20, **kw) -> "ProcedureSpec":
        return cls(PCP, subtask_bytes=subtask_bytes, **kw)

    @classmethod
    def sppcp(cls, k: int, subtask_bytes: int = 1 << 20, **kw) -> "ProcedureSpec":
        return cls(SPPCP, k=k, subtask_bytes=subtask_bytes, **kw)

    @classmethod
    def cppcp(cls, k: int, subtask_bytes: int = 1 << 20, **kw) -> "ProcedureSpec":
        return cls(CPPCP, k=k, subtask_bytes=subtask_bytes, **kw)

    # -- mapping to backends -------------------------------------------
    @property
    def is_pipelined(self) -> bool:
        return self.kind != SCP

    @property
    def compute_workers(self) -> int:
        return self.k if self.kind == CPPCP else 1

    @property
    def n_devices(self) -> int:
        return self.k if self.kind == SPPCP else 1

    def pipeline_config(self) -> PipelineConfig:
        if not self.is_pipelined:
            raise ValueError("SCP has no pipeline configuration")
        return PipelineConfig(
            compute_workers=self.compute_workers,
            n_devices=self.n_devices,
            queue_capacity=self.queue_capacity,
            shared_io=self.shared_io,
            handoff_overhead_s=self.handoff_overhead_s,
        )


def compact_tables(
    tables: Sequence[Table],
    storage,
    options: Options,
    file_namer: Callable[[], str],
    spec: Optional[ProcedureSpec] = None,
    drop_deletes: bool = False,
    lower: Optional[bytes] = None,
    upper: Optional[bytes] = None,
    smallest_snapshot: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
) -> tuple[list[FileMetaData], ExecutionStats, list[SubTask]]:
    """Functionally compact ``tables`` (newest-first) into new SSTables.

    Returns ``(output file metadata, execution stats, subtasks)``.
    The merged result is identical for every procedure spec; only the
    schedule differs, and the spec's whole effect here is the choice of
    who computes S2–S6 (:func:`execute_subtasks` does the rest):

    * SCP — the calling thread, in place, one sub-task at a time;
    * PCP / S-PPCP / C-PPCP — ``spec.compute_workers`` threads that live
      for this call.  S-PPCP is storage parallelism; functionally (one
      host, one address space) it executes like PCP — the device
      fan-out matters only for timing, which the sim backend models;
    * ``backend="process"`` — worker processes that live for this call.

    A pipelined spec keeps ``compute_workers + queue_capacity``
    sub-tasks in flight: one per worker plus the queue the paper puts
    in front of the compute stage.  With an enabled ``tracer`` every
    S1–S7 step of every sub-task records a span (plus one ``compaction``
    umbrella span), so a PCP run renders as the paper's Fig 6/7 overlap
    diagram.

    Every output is synced before this returns, in one group barrier
    (:meth:`TableSink.finish`, traced as ``S7:sync``) that the stats
    count in ``wall_seconds`` and ``stage_seconds["write"]``.  On any
    exception the open outputs are closed unsynced and the error
    propagates; deleting the partial files is the caller's job.
    """
    spec = spec or ProcedureSpec.scp()
    subtasks = partition_subtasks(
        tables, spec.subtask_bytes, lower, upper, smallest_snapshot
    )
    sink = TableSink(storage, options, file_namer)
    workers = spec.compute_workers
    window = workers + spec.queue_capacity
    remote = False
    with tracer.span(
        "compaction", cat="compaction",
        procedure=spec.kind, subtasks=len(subtasks),
    ), ExitStack() as owned:
        if not spec.is_pipelined:
            executor, window = InlineExecutor(), 1
        elif spec.backend == "process":
            # Imported here: the module costs a server that never asks
            # for worker processes 2 MB of resident memory.
            from concurrent.futures import ProcessPoolExecutor

            executor = owned.enter_context(ProcessPoolExecutor(workers))
            remote = True
        else:
            executor = owned.enter_context(
                ThreadPoolExecutor(workers, thread_name_prefix="pcp-compute")
            )
        try:
            stats = execute_subtasks(
                subtasks, sink, executor, window,
                options.compression, options.checksum, options.block_bytes,
                options.block_restart_interval, drop_deletes, smallest_snapshot,
                tracer=tracer, remote=remote,
                bloom_bits_per_key=options.bloom_bits_per_key,
            )
            # The durability barrier is the end of S7: it counts as
            # write time and as wall time.
            t0 = time.perf_counter()
            with tracer.span("S7:sync", cat="write",
                             subtask=max(len(subtasks) - 1, 0)):
                outputs = sink.finish()
            barrier_s = time.perf_counter() - t0
        except BaseException:
            sink.abandon()
            raise
    stats.stage_seconds["write"] += barrier_s
    stats.wall_seconds += barrier_s
    return outputs, stats, subtasks


def subtask_jobs(
    subtask_sizes: Sequence[tuple[int, int]],
    cost_model: CostModel,
    read_device: Device,
    write_device: Device,
) -> list[SimJob]:
    """Build scheduler jobs from ``(nbytes, entries)`` sub-task shapes."""
    jobs = []
    for i, (nbytes, entries) in enumerate(subtask_sizes):
        times = cost_model.step_times(nbytes, entries, read_device, write_device)
        jobs.append(SimJob(index=i, times=times.stages(), nbytes=nbytes))
    return jobs


def simulate_compaction(
    subtask_sizes: Sequence[tuple[int, int]],
    spec: ProcedureSpec,
    cost_model: Optional[CostModel] = None,
    read_device: Optional[Device] = None,
    write_device: Optional[Device] = None,
) -> ScheduleResult:
    """Simulate a compaction's schedule in virtual time.

    ``subtask_sizes`` is a list of ``(input_bytes, entries)`` pairs;
    devices default to the calibrated SSD preset.
    """
    from ..devices.presets import make_device

    cost_model = cost_model or CostModel()
    if read_device is None:
        read_device = make_device("ssd")
    if write_device is None:
        write_device = read_device
    jobs = subtask_jobs(subtask_sizes, cost_model, read_device, write_device)
    if spec.kind == SCP:
        return simulate_scp(jobs)
    return simulate_pipeline(jobs, spec.pipeline_config())


def uniform_subtasks(
    compaction_bytes: int,
    subtask_bytes: int,
    kv_bytes: int = DEFAULT_KV_BYTES,
) -> list[tuple[int, int]]:
    """Split a compaction into equal sub-task ``(bytes, entries)`` shapes."""
    if compaction_bytes < 1 or subtask_bytes < 1:
        raise ValueError("sizes must be positive")
    sizes = []
    remaining = compaction_bytes
    while remaining > 0:
        n = min(subtask_bytes, remaining)
        sizes.append((n, max(1, n // kv_bytes)))
        remaining -= n
    return sizes
