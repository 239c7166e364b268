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

:func:`CostModel.calibrate` rebuilds the constants by timing the real
codecs in this repository on synthetic key-value blocks, tying the
model to the functional implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..codec.checksum import get_checksummer
from ..codec.compress import lz77_compress, lz77_decompress
from ..devices.base import AccessKind, Device
from ..lsm.options import Options

__all__ = ["StepTimes", "StageTimes", "CostModel", "DEFAULT_KV_BYTES"]

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
        compression_ratio: float = 1.0,
    ) -> "CostModel":
        """Measure the real codecs and return a matching model.

        Times the checksum the engine writes (``Options().checksum``,
        zlib's CRC-32), :func:`lz77_compress`/:func:`lz77_decompress`,
        and a heap merge of encoded entries on this machine, producing
        a CostModel whose constants reflect the actual implementation
        instead of the paper-calibrated defaults.
        """
        sample = _kv_sample(sample_bytes, kv_bytes)
        checksum = get_checksummer(Options().checksum).checksum

        t0 = time.perf_counter()
        checksum(sample)
        t_crc = (time.perf_counter() - t0) / len(sample)

        t0 = time.perf_counter()
        compressed = lz77_compress(sample)
        t_comp = (time.perf_counter() - t0) / len(sample)

        t0 = time.perf_counter()
        lz77_decompress(compressed)
        t_dec = (time.perf_counter() - t0) / len(sample)

        entries = max(1, sample_bytes // kv_bytes)
        items = [(b"%012d" % i, b"v") for i in range(entries)]
        import heapq

        t0 = time.perf_counter()
        list(heapq.merge(items[::2], items[1::2]))
        t_merge = (time.perf_counter() - t0) / entries

        return cls(
            checksum_s_per_byte=t_crc,
            decompress_s_per_byte=t_dec,
            merge_s_per_entry=t_merge,
            compress_s_per_byte=t_comp,
            compression_ratio=compression_ratio,
        )


def _kv_sample(nbytes: int, kv_bytes: int) -> bytes:
    """Synthetic key-value payload with realistic compressibility."""
    out = bytearray()
    i = 0
    value_bytes = max(1, kv_bytes - 16)
    while len(out) < nbytes:
        out += b"user%012d" % i
        out += (b"field-%04d-" % (i % 997)) * (value_bytes // 11 + 1)
        i += 1
    return bytes(out[:nbytes])
