"""Virtual-time accounting for system-level experiments (Figs 10, 12).

CPython's GIL prevents a threaded pure-Python build from demonstrating
the CPU/I-O overlap the paper measures, so the system experiments run
the *functional* engine (real merges, real files in memory) while a
:class:`VirtualClock` observer attributes deterministic virtual seconds
to every event:

* foreground writes: WAL append (sequential device write) + per-entry
  memtable insertion CPU,
* memtable dumps: table build CPU + sequential write,
* compactions: the makespan of the configured procedure over the
  compaction's actual sub-task sizes, from ``simbackend``'s schedule
  loop (same-instant events in scheduling order, each hand-off a
  zero-delay event) — this is where SCP vs PCP vs PPCP differ,
* a fixed per-compaction maintenance overhead (the paper's "database
  consistence maintaining, garbage collecting and other operations
  which are not pipelined", the reason throughput gains trail
  bandwidth gains by ~20 %).

Total virtual time = foreground + flush + compaction + maintenance;
IOPS = ops / total.  Everything is deterministic.

A write's latency is the virtual time since the previous write ended:
its own cost plus every flush, move and compaction charged in between,
the serial model of a single-writer LSM's write pauses (paper §I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.backends.simbackend import simulate_pipeline, simulate_scp
from ..core.costmodel import DEFAULT_KV_BYTES, CostModel
from ..core.procedures import SCP, ProcedureSpec, subtask_jobs
from ..devices.base import AccessKind, Device

__all__ = ["VirtualClock"]


@dataclass
class VirtualClock:
    """DB observer that accumulates virtual seconds per activity."""

    spec: ProcedureSpec
    read_device: Device
    write_device: Device
    cost_model: CostModel = field(default_factory=CostModel)
    kv_bytes: int = DEFAULT_KV_BYTES
    #: CPU cost of one memtable (skiplist) insertion.
    memtable_insert_s: float = 2.0e-6
    #: unpipelined bookkeeping per compaction (version edits, GC, ...).
    maintenance_per_compaction_s: float = 0.004
    #: metadata-only cost of a trivial move.
    trivial_move_s: float = 0.0005
    #: called after each compaction with no args; lets the runner grow
    #: the HDD fill level as the data set ages (Fig 10(b)).
    on_shape_change: Optional[Callable[[], None]] = None

    foreground_s: float = 0.0
    flush_s: float = 0.0
    compaction_s: float = 0.0
    maintenance_s: float = 0.0
    compaction_input_bytes: int = 0
    n_compactions: int = 0

    #: virtual seconds of each write, in order (see the module docstring).
    write_latencies: list[float] = field(init=False, default_factory=list)
    _write_end_s: float = field(init=False, default=0.0)

    _wal_s_per_byte: Optional[float] = None

    # ------------------------------------------------------------ hooks
    def on_write(self, batch, wal_bytes: int) -> None:
        # WAL appends stream into the device write path; per-op device
        # latency amortises over large sequential writes, so charge the
        # large-write per-byte rate rather than a full op per batch.
        if self._wal_s_per_byte is None:
            one_mb = 1 << 20
            self._wal_s_per_byte = (
                self.write_device.estimate(AccessKind.WRITE, one_mb, True) / one_mb
            )
        t = wal_bytes * self._wal_s_per_byte
        t += len(batch) * self.memtable_insert_s
        self.foreground_s += t
        end = self.total_s
        self.write_latencies.append(end - self._write_end_s)
        self._write_end_s = end

    def on_flush(self, meta) -> None:
        cpu = self.cost_model.compute_times(
            meta.file_size, self.cost_model.entries_for(meta.file_size, self.kv_bytes)
        )
        # A dump performs build+compress+checksum (no S2/S3: input is
        # already in memory) and one sequential write.
        t = cpu.merge + cpu.compress + cpu.rechecksum
        t += self.write_device.estimate(
            AccessKind.WRITE, meta.file_size, sequential=True
        )
        self.flush_s += t

    def on_trivial_move(self, task) -> None:
        self.maintenance_s += self.trivial_move_s

    def on_compaction(self, task, subtasks, stats) -> None:
        sizes = [
            (s.input_bytes(), self.cost_model.entries_for(s.input_bytes(), self.kv_bytes))
            for s in subtasks
        ]
        jobs = subtask_jobs(sizes, self.cost_model, self.read_device, self.write_device)
        if self.spec.kind == SCP:
            result = simulate_scp(jobs)
        else:
            result = simulate_pipeline(jobs, self.spec.pipeline_config())
        self.compaction_s += result.makespan
        self.maintenance_s += self.maintenance_per_compaction_s
        self.compaction_input_bytes += result.total_bytes
        self.n_compactions += 1
        if self.on_shape_change is not None:
            self.on_shape_change()

    # ---------------------------------------------------------- results
    @property
    def total_s(self) -> float:
        return (
            self.foreground_s + self.flush_s + self.compaction_s + self.maintenance_s
        )

    def compaction_bandwidth(self) -> float:
        """Bytes of compaction input per virtual second of compaction."""
        if self.compaction_s <= 0:
            return 0.0
        return self.compaction_input_bytes / self.compaction_s

    def iops(self, n_ops: int) -> float:
        if self.total_s <= 0:
            return 0.0
        return n_ops / self.total_s
