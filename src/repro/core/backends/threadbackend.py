"""Functional execution of the compaction procedures, on real data.

One loop runs every procedure.  The calling thread does S1 (read) and
S7 (write) itself and hands each sub-task's S2–S6 to an *executor* —
anything with ``submit(fn, *args) -> Future`` — keeping a bounded
window of sub-tasks in flight.  The procedures differ only in who
computes: the caller in place (SCP), ``k`` threads owned by the call
(PCP, S-PPCP, C-PPCP), or worker processes owned by the call.  A
sharded store's shards each compact this way, on their own per-call
executors.  Sub-tasks are independent, so every choice writes the same
bytes.

Write ordering needs no bookkeeping: futures are consumed in the order
they were submitted, and submission order is key order.

What this backend overlaps is I/O with compute.  S1 and S7 share the
caller thread, so its bound is ``max(t1 + t7, Σt2..6 / k)`` rather than
Eq 2's three-way max, and under CPython's GIL the compute of concurrent
sub-tasks on *threads* serializes besides.  Measured speedups are
therefore a lower bound on what the schedule allows; the quantitative
experiments use :mod:`repro.core.backends.simbackend`, which models the
paper's three independent stages (see DESIGN.md).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ...codec.checksum import get_checksummer
from ...codec.compress import get_codec
from ...lsm.table_sink import EncodedBlock, TableSink
from ...obs.tracer import NULL_TRACER, Tracer
from ..steps import (
    MergedBlock,
    StoredBlock,
    spliced_by_facts,
    step_checksum,
    step_compress,
    step_decompress,
    step_read,
    step_rechecksum,
    step_splice,
    step_write,
)
from ..subtask import SubTask, distinct_input_bytes

__all__ = ["ExecutionStats", "InlineExecutor", "run_subtask_read",
           "run_subtask_compute", "execute_subtasks"]


@dataclass
class ExecutionStats:
    """Wall-clock accounting of a functional compaction run.

    ``stage_seconds`` is time spent *inside* each stage, summed over
    sub-tasks, under every executor: ``read`` and ``write`` on the
    caller thread, ``compute`` wherever S2–S6 ran (so with ``k``
    parallel workers it can exceed ``wall_seconds``).
    """

    wall_seconds: float = 0.0
    n_subtasks: int = 0
    input_bytes: int = 0  # stored bytes of the input blocks, each once
    output_bytes: int = 0
    entries_out: int = 0
    #: input blocks spliced into the output from their index facts,
    #: verified and never decompressed (no S3–S6)
    passthrough_blocks: int = 0
    passthrough_bytes: int = 0
    #: input blocks decompressed and decoded, then spliced into the
    #: output as stored (no S5–S6); none is also a pass-through
    reused_blocks: int = 0
    reused_bytes: int = 0
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {"read": 0.0, "compute": 0.0, "write": 0.0}
    )

    def bandwidth(self) -> float:
        return self.input_bytes / self.wall_seconds if self.wall_seconds > 0 else 0.0


class InlineExecutor:
    """SCP's executor: ``submit`` runs the job on the calling thread."""

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # re-raised by result(), like a pool's
            future.set_exception(exc)
        return future


def run_subtask_read(subtask: SubTask, tracer: Tracer = NULL_TRACER) -> list[StoredBlock]:
    """S1 for one sub-task: fetch every input block, with its filter
    piece and facts from the open input table's index."""
    files = [run.table.file for run in subtask.runs]
    handles = [run.handles for run in subtask.runs]
    with tracer.span("S1:read", cat="read", subtask=subtask.index):
        filters = [run.table.block_filters(run.handles) for run in subtask.runs]
        facts = [run.table.block_facts(run.handles) for run in subtask.runs]
        return step_read(files, handles, filters, facts)


def run_subtask_compute(
    stored: list[StoredBlock],
    index: int,
    lower: Optional[bytes],
    upper: Optional[bytes],
    n_sources: int,
    codec_name: str,
    checksum_name: str,
    block_bytes: int,
    restart_interval: int,
    drop_deletes: bool,
    smallest_snapshot: Optional[int],
    bloom_bits_per_key: int = 10,
    tracer: Tracer = NULL_TRACER,
) -> tuple[list[EncodedBlock], float]:
    """S2–S6 for one sub-task: verify, decompress, merge, re-encode.

    Every block takes S2.  A block whose index facts show the merge
    would only reproduce it (:func:`spliced_by_facts`) skips S3; S4
    (:func:`step_splice`) hands it on as stored, with each decoded input
    block the merge would only reproduce, and merges and rebuilds what
    lies between them; only those rebuilt blocks take S5 and S6.

    Returns the finished blocks and the seconds spent producing them.
    Arguments and result are picklable — codec and checksum by name,
    the sub-task as its bounds and run count rather than the
    :class:`SubTask` holding open tables — so this one function is the
    compute stage on the caller, on a pool thread and in a worker
    process (which leaves ``tracer``, the one exception, at its default).
    """
    t0 = time.perf_counter()
    codec = get_codec(codec_name)
    checksummer = get_checksummer(checksum_name)
    with tracer.span("S2:checksum", cat="compute", subtask=index):
        step_checksum(stored, checksummer)
    with tracer.span("S3:decompress", cat="compute", subtask=index):
        skip = spliced_by_facts(stored, lower, upper, codec, bloom_bits_per_key)
        raw = step_decompress(stored, skip)
    with tracer.span("S4:merge", cat="compute", subtask=index):
        blocks = step_splice(
            stored, raw, lower, upper, codec, block_bytes, restart_interval,
            drop_deletes, smallest_snapshot, bloom_bits_per_key,
        )
    rebuilt = [block for block in blocks if isinstance(block, MergedBlock)]
    if not rebuilt:
        return blocks, time.perf_counter() - t0
    with tracer.span("S5:compress", cat="compute", subtask=index):
        compressed = step_compress(rebuilt, codec)
    with tracer.span("S6:rechecksum", cat="compute", subtask=index):
        encoded = iter(step_rechecksum(compressed, checksummer))
    return (
        [next(encoded) if isinstance(block, MergedBlock) else block for block in blocks],
        time.perf_counter() - t0,
    )


def execute_subtasks(
    subtasks: Sequence[SubTask],
    sink: TableSink,
    executor,
    window: int,
    codec_name: str,
    checksum_name: str,
    block_bytes: int,
    restart_interval: int = 16,
    drop_deletes: bool = False,
    smallest_snapshot: Optional[int] = None,
    tracer: Tracer = NULL_TRACER,
    remote: bool = False,
    bloom_bits_per_key: int = 10,
) -> ExecutionStats:
    """Run a compaction: S1 and S7 here, S2–S6 on ``executor``.

    Up to ``window`` sub-tasks are read ahead and submitted; the oldest
    is then awaited, written, and replaced by the next read, so reads of
    upcoming sub-tasks overlap the executor's compute of earlier ones
    and memory holds at most ``window`` sub-tasks — in bytes, ``window``
    times the bound :func:`~repro.core.subtask.partition_subtasks` keeps on every sub-task,
    whatever the shape of the inputs.  The executor is borrowed: whoever
    created it shuts it down.

    ``remote`` says the executor's workers are other processes: the
    tracer stays here, and each sub-task's compute is recorded as one
    coarse ``S2-S6:compute`` span from submission to collection (queue
    wait and pickling included) instead of a span per step.

    Any stage's exception is re-raised on the calling thread, after
    every future still in flight has settled — no worker is left holding
    this compaction's blocks, and the DB's retry/quarantine handling
    sees the error under every procedure.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    stats = ExecutionStats()
    settings = (codec_name, checksum_name, block_bytes, restart_interval,
                drop_deletes, smallest_snapshot, bloom_bits_per_key)
    if not remote:
        settings += (tracer,)
    pending: deque = deque()  # FIFO of (subtask, future, submitted_at)

    def write_oldest() -> None:
        subtask, future, submitted_at = pending.popleft()
        encoded, compute_s = future.result()
        if remote and tracer.enabled:
            tracer.add_complete(
                "S2-S6:compute", submitted_at, tracer.now(), cat="compute",
                thread="mp-pool", subtask=subtask.index,
            )
        t0 = time.perf_counter()
        with tracer.span("S7:write", cat="write", subtask=subtask.index):
            written = step_write(encoded, sink)
        stats.stage_seconds["write"] += time.perf_counter() - t0
        stats.stage_seconds["compute"] += compute_s
        stats.n_subtasks += 1
        stats.output_bytes += written
        stats.entries_out += sum(b.num_entries for b in encoded)
        for block in encoded:
            if block.passthrough:
                stats.passthrough_blocks += 1
                stats.passthrough_bytes += len(block.stored)
            elif block.reused:
                stats.reused_blocks += 1
                stats.reused_bytes += len(block.stored)

    t_start = time.perf_counter()
    try:
        for subtask in subtasks:
            if len(pending) == window:
                write_oldest()
            t0 = time.perf_counter()
            stored = run_subtask_read(subtask, tracer)
            stats.stage_seconds["read"] += time.perf_counter() - t0
            future = executor.submit(
                run_subtask_compute, stored, subtask.index, subtask.lower,
                subtask.upper, len(subtask.runs), *settings,
            )
            pending.append((subtask, future, tracer.now()))
        while pending:
            write_oldest()
    except BaseException:
        for _subtask, future, _at in pending:
            future.cancel()
        for _subtask, future, _at in pending:
            try:
                future.result()
            except BaseException:  # repro: noqa[RA105] original error wins
                pass
        raise
    stats.wall_seconds = time.perf_counter() - t_start
    stats.input_bytes = distinct_input_bytes(subtasks)
    return stats
