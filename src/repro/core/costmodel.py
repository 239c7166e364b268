"""Per-step service-time models (and their calibration).

The simulated experiments need the execution time of each compaction
step for a sub-task of a given size.  :class:`CostModel` provides
those: linear per-byte models for checksum/compress/decompress, a
per-entry model for the merge step (which is why the paper's Fig 8
shows *sort* shrinking as key-value size grows — fewer entries per
byte).

The default constants are calibrated so that at the paper's default
configuration (1 MiB sub-tasks, 16 B keys + 100 B values) the Fig 5
breakdown shapes hold against the device presets:

* compute total ≈ 25.6 ms/MiB,
* S5 compress is the costliest pure-CPU per-byte step, S3 decompress
  the cheapest, CRC steps < 5 % of the sub-task each.

:func:`profile_steps_real` traces the engine compacting two tables
and sums its own S1..S7 spans; :func:`CostModel.calibrate` fits the
constants to that one profile, tying the model to the code that runs.
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..devices.base import AccessKind, Device
from ..devices.vfs import MemStorage
from ..lsm.ikey import KIND_VALUE, encode_internal_key
from ..lsm.options import Options
from ..lsm.table_builder import TableBuilder
from ..lsm.table_reader import Table
from ..lsm.version import FileMetaData
from ..obs.tracer import Tracer

if TYPE_CHECKING:  # ``backends`` imports this module
    from .backends.threadbackend import ExecutionStats

__all__ = ["StepTimes", "StageTimes", "CostModel", "DEFAULT_KV_BYTES",
           "RealStepProfile", "profile_steps_real"]

MB = float(1 << 20)

#: Default entry footprint: 16 B key + 100 B value (paper §IV-A).
DEFAULT_KV_BYTES = 116


@dataclass(frozen=True)
class StageTimes:
    """Service times of the three pipeline stages for one sub-task."""

    t_read: float
    t_compute: float
    t_write: float

    @property
    def total(self) -> float:
        return self.t_read + self.t_compute + self.t_write

    @property
    def bottleneck(self) -> str:
        times = {
            "read": self.t_read,
            "compute": self.t_compute,
            "write": self.t_write,
        }
        return max(times, key=times.get)

    def scaled(self, factor: float) -> "StageTimes":
        return StageTimes(
            self.t_read * factor, self.t_compute * factor, self.t_write * factor
        )


@dataclass(frozen=True)
class StepTimes:
    """Service times of the seven steps (S1..S7) for one sub-task."""

    read: float  # S1
    checksum: float  # S2
    decompress: float  # S3
    merge: float  # S4
    compress: float  # S5
    rechecksum: float  # S6
    write: float  # S7

    @property
    def total(self) -> float:
        return (
            self.read
            + self.checksum
            + self.decompress
            + self.merge
            + self.compress
            + self.rechecksum
            + self.write
        )

    @property
    def compute_total(self) -> float:
        """Σ t_{S2..S6} — the paper's CPU-side sum."""
        return (
            self.checksum
            + self.decompress
            + self.merge
            + self.compress
            + self.rechecksum
        )

    def stages(self) -> StageTimes:
        """Collapse to the 3-stage pipeline model."""
        return StageTimes(self.read, self.compute_total, self.write)

    def as_dict(self) -> dict[str, float]:
        return {
            "read": self.read,
            "checksum": self.checksum,
            "decompress": self.decompress,
            "merge": self.merge,
            "compress": self.compress,
            "rechecksum": self.rechecksum,
            "write": self.write,
        }


@dataclass(frozen=True)
class CostModel:
    """Linear per-byte / per-entry service-time constants (seconds)."""

    checksum_s_per_byte: float = 0.0017 / MB
    decompress_s_per_byte: float = 0.0016 / MB
    merge_s_per_entry: float = 0.73e-6
    compress_s_per_byte: float = 0.0139 / MB
    #: output bytes = compression_ratio * input bytes (1.0 = size-neutral;
    #: the paper's bandwidth metric is per *input* byte either way).
    compression_ratio: float = 1.0

    def compute_times(self, nbytes: int, entries: int) -> StepTimes:
        """CPU step times only (read/write zeroed)."""
        out_bytes = nbytes * self.compression_ratio
        return StepTimes(
            read=0.0,
            checksum=self.checksum_s_per_byte * nbytes,
            decompress=self.decompress_s_per_byte * nbytes,
            merge=self.merge_s_per_entry * entries,
            compress=self.compress_s_per_byte * nbytes,
            rechecksum=self.checksum_s_per_byte * out_bytes,
            write=0.0,
        )

    def step_times(
        self,
        nbytes: int,
        entries: int,
        read_device: Device,
        write_device: Device,
        sequential_read: bool = False,
        sequential_write: bool = True,
    ) -> StepTimes:
        """Full S1..S7 times for one sub-task of ``nbytes`` input.

        Reads default to *random* positioning: a compaction interleaves
        reads of several input tables with output writes, so the HDD
        arm repositions per sub-task (paper §IV-B).  Writes default to
        sequential (the output is appended, and the HDD model routes
        them through the write-back buffer anyway).
        """
        cpu = self.compute_times(nbytes, entries)
        out_bytes = int(round(nbytes * self.compression_ratio))
        t_read = read_device.estimate(AccessKind.READ, nbytes, sequential_read)
        t_write = write_device.estimate(AccessKind.WRITE, out_bytes, sequential_write)
        return replace(cpu, read=t_read, write=t_write)

    def entries_for(self, nbytes: int, kv_bytes: int = DEFAULT_KV_BYTES) -> int:
        """Entry count of a sub-task at a given per-entry footprint."""
        if kv_bytes < 1:
            raise ValueError(f"kv_bytes must be >= 1, got {kv_bytes}")
        return max(1, nbytes // kv_bytes)

    @classmethod
    def calibrate(
        cls,
        sample_bytes: int = 1 << 18,
        kv_bytes: int = DEFAULT_KV_BYTES,
    ) -> "CostModel":
        """Fit the constants to the engine's own traced compaction.

        Runs :func:`profile_steps_real` once (``sample_bytes`` of
        key-value pairs per input table) and divides its S2, S3 and S5
        seconds by the input bytes and its S4 seconds by the entries —
        the units :meth:`compute_times` charges — so the fitted model
        reproduces the profiled S2–S5 times.  S6 is charged at S2's
        rate.
        """
        profile = profile_steps_real(sample_bytes, kv_bytes)
        times, nbytes = profile.times, profile.input_bytes
        return cls(
            checksum_s_per_byte=times.checksum / nbytes,
            decompress_s_per_byte=times.decompress / nbytes,
            merge_s_per_entry=times.merge / profile.entries,
            compress_s_per_byte=times.compress / nbytes,
        )


@dataclass
class RealStepProfile:
    """The engine's S1..S7 seconds over one traced compaction.

    ``times`` averages the repeats; ``stats`` is the last repeat's run
    and ``outputs`` its output tables, in ``storage``.
    """

    times: StepTimes
    input_bytes: int
    entries: int
    storage: MemStorage
    outputs: list[FileMetaData]
    stats: ExecutionStats


#: The step each span of a traced compaction belongs to.
_STEP_OF_SPAN = {
    "S1:read": "read",
    "S2:checksum": "checksum",
    "S3:decompress": "decompress",
    "S4:merge": "merge",
    "S5:compress": "compress",
    "S6:rechecksum": "rechecksum",
    "S7:write": "write",
    "S7:sync": "write",
}


def profile_steps_real(
    subtask_bytes: int = 256 * 1024,
    kv_bytes: int = DEFAULT_KV_BYTES,
    compression: str = "lz77",
    repeats: int = 1,
) -> RealStepProfile:
    """Trace the engine compacting two interleaved tables under SCP.

    The upper table holds the even keys and the lower the odd ones, so
    no input block can be spliced and S4 is a full merge.  Each step's
    time is the sum of the spans :func:`compact_tables` recorded for it.
    S1/S7 run against in-memory storage, so their absolute times are
    meaningless (DRAM speed); the CPU steps S2-S6 are the interesting
    part and the reason the paper's SSD profile is compute-bound.
    """
    # Imported here: ``procedures`` imports this module, and a process
    # that never profiles need not load the workload generators.
    from ..workload.generators import ValueGenerator
    from .procedures import ProcedureSpec, compact_tables

    options = Options(compression=compression, block_bytes=4096)
    storage = MemStorage()
    values = ValueGenerator(max(1, kv_bytes - 16))
    n_keys = 2 * max(16, subtask_bytes // kv_bytes)

    def build(name, start, seq):
        with storage.create(name) as f:
            builder = TableBuilder(f, options)
            for i in range(start, n_keys, 2):
                key = encode_internal_key(b"%016d" % i, seq, KIND_VALUE)
                builder.add(key, values.value_for(i))
            builder.finish()
        return Table(storage.open(name), options)

    tables = [build("u.sst", 0, seq=9), build("l.sst", 1, seq=1)]
    numbers = itertools.count(1)
    tracer = Tracer()
    repeats = max(1, repeats)
    # As timeit does: no collector pause inside a traced step.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            outputs, stats, _ = compact_tables(
                tables, storage, options,
                lambda: f"out-{next(numbers):06d}.sst",
                ProcedureSpec.scp(subtask_bytes), tracer=tracer,
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    seconds = dict.fromkeys(_STEP_OF_SPAN.values(), 0.0)
    for span in tracer.spans():
        if span.name in _STEP_OF_SPAN:
            seconds[_STEP_OF_SPAN[span.name]] += span.duration / repeats
    return RealStepProfile(
        times=StepTimes(**seconds), input_bytes=stats.input_bytes,
        entries=stats.entries_out, storage=storage, outputs=outputs,
        stats=stats,
    )
