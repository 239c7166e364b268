"""System-level experiment runner: insert workloads on the full DB.

Runs the real engine (functional compactions over in-memory storage)
under a :class:`~repro.bench.observer.VirtualClock`, producing the
IOPS / compaction-bandwidth numbers of Figures 10 and 12.

Scaling.  The paper's setup (4 MB memtables, 2 MB SSTables, ~1 MB
sub-tasks, 10M-80M entries) is scaled down by ``SCALE`` = 32 in every
*capacity* dimension so a run completes in seconds.  To keep each
sub-task's read/compute/write ratio at the paper's operating point,
the *device granularity constants* (HDD positioning time, SSD per-op
latency and channel-chunk size) are scaled by the same factor —
a 32 KB sub-task on the scaled device costs exactly 1/32 of what a
1 MB sub-task costs on the calibrated preset, so every bandwidth
ratio, breakdown fraction, and saturation point is preserved.  See
DESIGN.md's substitution table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.costmodel import CostModel
from ..core.procedures import ProcedureSpec
from ..db.db import DB
from ..devices import MemStorage
from ..devices.base import Device
from ..devices.hdd import HDD
from ..devices.presets import PAPER_HDD, PAPER_SSD
from ..devices.ssd import SSD
from ..lsm.options import Options
from ..workload.generators import InsertWorkload

__all__ = [
    "SCALE",
    "SystemRunResult",
    "scaled_device",
    "scaled_options",
    "run_insert_workload",
]

#: capacity scale-down factor vs the paper's configuration.
SCALE = 32

#: Paper data sizes are ~500x our scaled runs; HDD seek aging applies
#: to the paper-scale footprint.
FILL_SCALE = 2000


def scaled_device(kind: str) -> Device:
    """A device whose granularity constants match the 1/SCALE world."""
    if kind == "ssd":
        spec = replace(
            PAPER_SSD,
            channel_chunk=max(512, PAPER_SSD.channel_chunk // SCALE),
            read_latency_s=PAPER_SSD.read_latency_s / SCALE,
            write_latency_s=PAPER_SSD.write_latency_s / SCALE,
        )
        return SSD(spec, name="ssd-scaled")
    if kind == "hdd":
        spec = replace(
            PAPER_HDD,
            seek_s=PAPER_HDD.seek_s / SCALE,
            rotation_s=PAPER_HDD.rotation_s / SCALE,
            # Fragmentation on an aged LevelDB allocation grows seek
            # distance faster than raw fill; amplified so the paper's
            # Fig 10(b) bandwidth sag shows at our footprints.
            seek_scale_per_gb=PAPER_HDD.seek_scale_per_gb * 8,
        )
        return HDD(spec, name="hdd-scaled")
    raise KeyError(f"unknown device kind {kind!r}")


def scaled_options(**kw) -> Options:
    """Paper defaults scaled by SCALE (memtable 4 MB -> 128 KiB, ...)."""
    defaults = dict(
        memtable_bytes=(4 << 20) // SCALE,
        sstable_bytes=(2 << 20) // SCALE,
        block_bytes=4 * 1024,
        level1_bytes=(10 << 20) // SCALE,
        # The working sets are scaled ~500x while capacities scale 32x;
        # a smaller multiplier restores the paper's tree depth at our
        # entry counts (see EXPERIMENTS.md).
        level_multiplier=4,
        l0_compaction_trigger=4,
        compression="zlib",  # fast C codec: functional work only; the
        # virtual clock charges model costs regardless
    )
    defaults.update(kw)
    return Options(**defaults)


#: the paper's ~1 MB sub-task, scaled.
SCALED_SUBTASK = (1 << 20) // SCALE


@dataclass
class SystemRunResult:
    """Outcome of one insert-workload run."""

    n_ops: int
    spec: ProcedureSpec
    device: str
    virtual_seconds: float
    foreground_seconds: float
    flush_seconds: float
    compaction_seconds: float
    maintenance_seconds: float
    iops: float
    compaction_bandwidth: float
    compaction_input_bytes: int
    n_compactions: int
    n_flushes: int
    levels: list[int]

    def summary(self) -> str:
        return (
            f"{self.spec.kind:6s} on {self.device}: "
            f"{self.iops:10.0f} ops/s, "
            f"compaction {self.compaction_bandwidth / 1e6:7.2f} MB/s "
            f"({self.n_compactions} compactions)"
        )


def run_insert_workload(
    n: int,
    spec: ProcedureSpec,
    device: str = "ssd",
    options: Options | None = None,
    distribution: str = "uniform",
    value_bytes: int = 100,
    cost_model: CostModel | None = None,
    seed: int = 0,
) -> SystemRunResult:
    """Insert ``n`` entries through the engine under virtual timing."""
    from .observer import VirtualClock

    options = options or scaled_options()
    storage = MemStorage()
    dev = scaled_device(device)
    clock = VirtualClock(
        spec=spec,
        read_device=dev,
        write_device=dev,
        cost_model=cost_model or CostModel(),
        kv_bytes=16 + value_bytes,
        # bookkeeping costs live in the scaled time world too
        maintenance_per_compaction_s=0.004 / SCALE,
        trivial_move_s=0.0005 / SCALE,
        memtable_insert_s=2.0e-6 / SCALE,
    )
    if isinstance(dev, HDD):
        # Grow the seek distance with the (paper-scale) resident data.
        clock.on_shape_change = lambda: dev.set_fill_bytes(
            storage.total_bytes() * FILL_SCALE
        )
    workload = InsertWorkload(
        n=n, distribution=distribution, value_bytes=value_bytes, seed=seed
    )
    db = DB(storage, options, compaction_spec=spec, observer=clock)
    try:
        workload.apply_to(db)
        db.flush()
        levels = [db.num_files(lv) for lv in range(options.num_levels)]
        n_flushes = db.obs.metrics.counter("db.flushes").value
    finally:
        db.close()
    return SystemRunResult(
        n_ops=n,
        spec=spec,
        device=device,
        virtual_seconds=clock.total_s,
        foreground_seconds=clock.foreground_s,
        flush_seconds=clock.flush_s,
        compaction_seconds=clock.compaction_s,
        maintenance_seconds=clock.maintenance_s,
        iops=clock.iops(n),
        compaction_bandwidth=clock.compaction_bandwidth(),
        compaction_input_bytes=clock.compaction_input_bytes,
        n_compactions=clock.n_compactions,
        n_flushes=n_flushes,
        levels=levels,
    )
