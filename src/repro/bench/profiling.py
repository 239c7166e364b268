"""Step-time profiling: the data behind Figures 5, 8, and 9.

Two profilers:

* :func:`profile_steps_model` — deterministic per-step times from the
  cost model + device presets (what the quantitative figures use).
* :func:`profile_steps_real` — build a real compaction input in memory
  and wall-clock each of the seven steps of the actual implementation
  (ties the model to the code; the *relative* CPU-step ordering should
  match the model's).
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass

from ..codec.checksum import get_checksummer
from ..codec.compress import get_codec
from ..core.backends.threadbackend import run_subtask_read
from ..core.costmodel import DEFAULT_KV_BYTES, CostModel, StepTimes
from ..core.steps import (
    step_checksum,
    step_compress,
    step_decompress,
    step_merge,
    step_rechecksum,
    step_write,
)
from ..core.subtask import partition_subtasks
from ..devices import MemStorage, make_device
from ..lsm.ikey import KIND_VALUE, encode_internal_key
from ..lsm.options import Options
from ..lsm.table_builder import TableBuilder
from ..lsm.table_reader import Table
from ..lsm.table_sink import TableSink
from ..lsm.version import FileMetaData
from ..workload.generators import ValueGenerator

__all__ = ["profile_steps_model", "profile_steps_real", "breakdown3"]


def profile_steps_model(
    subtask_bytes: int = 1 << 20,
    kv_bytes: int = DEFAULT_KV_BYTES,
    device: str = "ssd",
    cost_model: CostModel | None = None,
) -> StepTimes:
    """S1..S7 service times for one sub-task under the model."""
    cm = cost_model or CostModel()
    dev = make_device(device)
    entries = cm.entries_for(subtask_bytes, kv_bytes)
    return cm.step_times(subtask_bytes, entries, dev, dev)


def breakdown3(times: StepTimes) -> dict[str, float]:
    """Collapse S1..S7 shares into read/compute/write fractions."""
    total = times.total
    return {
        "read": times.read / total,
        "compute": times.compute_total / total,
        "write": times.write / total,
    }


@dataclass
class RealStepProfile:
    """Wall-clock seconds per step over a real sub-task's data.

    ``outputs`` are the last repeat's output tables, in ``storage``.
    """

    times: StepTimes
    input_bytes: int
    entries: int
    storage: MemStorage
    outputs: list[FileMetaData]

    def fractions(self) -> dict[str, float]:
        total = self.times.total
        return {k: v / total for k, v in self.times.as_dict().items()}


def profile_steps_real(
    subtask_bytes: int = 256 * 1024,
    kv_bytes: int = DEFAULT_KV_BYTES,
    compression: str = "lz77",
    repeats: int = 1,
) -> RealStepProfile:
    """Time the actual seven-step implementation on synthetic tables.

    S1/S7 run against in-memory storage, so their absolute times are
    meaningless (DRAM speed); the CPU steps S2-S6 are the interesting
    part and the reason the paper's SSD profile is compute-bound.
    """
    value_bytes = max(1, kv_bytes - 16)
    options = Options(compression=compression, block_bytes=4096)
    storage = MemStorage()
    values = ValueGenerator(value_bytes)

    n_entries = max(16, subtask_bytes // kv_bytes)
    def build(name, start, step, seq):
        with storage.create(name) as f:
            builder = TableBuilder(f, options)
            for i in range(start, start + n_entries * step, step):
                key = encode_internal_key(b"%016d" % i, seq, KIND_VALUE)
                builder.add(key, values.value_for(i))
            builder.finish()
        return Table(storage.open(name), options)

    upper = build("u.sst", 0, 2, seq=9)
    lower = build("l.sst", 1, 2, seq=1)
    subtasks = partition_subtasks([upper, lower], subtask_bytes=1 << 40)
    assert len(subtasks) == 1
    subtask = subtasks[0]
    codec = get_codec(compression)
    checksummer = get_checksummer(options.checksum)

    acc = dict.fromkeys(
        ("read", "checksum", "decompress", "merge", "compress", "rechecksum",
         "write"), 0.0,
    )
    input_bytes = subtask.input_bytes()
    out_entries = 0
    # As timeit does: no collector pause inside a timed step.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            stored = run_subtask_read(subtask)
            t1 = time.perf_counter()
            step_checksum(stored, checksummer)
            t2 = time.perf_counter()
            raw = step_decompress(stored)
            t3 = time.perf_counter()
            merged = step_merge(raw, None, None, options.block_bytes,
                                n_sources=len(subtask.runs))
            t4 = time.perf_counter()
            compressed = step_compress(merged, codec)
            t5 = time.perf_counter()
            encoded = step_rechecksum(compressed, checksummer)
            t6 = time.perf_counter()
            numbers = itertools.count(1)
            sink = TableSink(storage, options, lambda: f"out-{next(numbers):06d}.sst")
            step_write(encoded, sink)
            outputs = sink.finish()
            t7 = time.perf_counter()
            acc["read"] += t1 - t0
            acc["checksum"] += t2 - t1
            acc["decompress"] += t3 - t2
            acc["merge"] += t4 - t3
            acc["compress"] += t5 - t4
            acc["rechecksum"] += t6 - t5
            acc["write"] += t7 - t6
            out_entries = sum(b.num_entries for b in encoded)
    finally:
        if gc_was_enabled:
            gc.enable()
    r = max(1, repeats)
    times = StepTimes(**{k: v / r for k, v in acc.items()})
    return RealStepProfile(
        times=times, input_bytes=input_bytes, entries=out_entries,
        storage=storage, outputs=outputs,
    )
