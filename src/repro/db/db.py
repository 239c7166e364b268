"""The key-value store facade: LevelDB-shaped, pipelined-compaction-capable.

``DB`` composes the substrates — memtable + WAL (C0), leveled SSTables
(C1..Ck), version/manifest metadata — with the compaction procedures of
:mod:`repro.core`.  The compaction procedure is pluggable per §III of
the paper: pass ``compaction_spec=ProcedureSpec.pcp()`` (or ``sppcp``/
``cppcp``) to run background compactions through the pipelined
executor; the default is classic sequential LevelDB behaviour (SCP).

Concurrency model: a single writer lock serialises writes and metadata
changes.  Compaction runs either synchronously inside the writing
thread (``background=False``, deterministic — used by experiments) or
on a background thread (``background=True``) with the paper's
write-pause behaviour: the foreground stalls only when L0 backs up.

Durability: every write batch is appended to the WAL before touching
the memtable; every ``Options.wal_sync_interval`` batches force an
fsync.  Recovery replays MANIFEST then the live WAL.

Counts (writes, gets, flushes, compactions, cache hits, I/O) live only
in the ``obs`` bundle's :class:`repro.obs.MetricsRegistry`;
:meth:`DB.metrics_snapshot` reads them all and :func:`db_counts` picks
out the ones STATS and the ``stats`` property report.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import Iterator, Optional

from ..analysis.locksan import make_lock, make_rlock
from ..analysis.racesan import shared_state
from ..compaction.policy import (
    CompactionTask,
    PolicyMismatchError,
    canonical_spec,
    make_policy,
)
from ..core.procedures import ProcedureSpec, compact_tables
from ..devices.faults import TransientIOError, find_faulty
from ..devices.vfs import MeteredStorage, Storage, StorageError
from ..lsm.cache import LRUCache
from ..lsm.ikey import (
    KIND_DELETE,
    MAX_SEQUENCE,
    internal_order,
    lookup_key,
)
from ..lsm.memtable import MemTable
from ..lsm.options import Options
from ..lsm.table_builder import TableBuilder
from ..lsm.table_format import TableCorruption
from ..lsm.table_reader import Table, WouldBlock
from ..lsm.version import FileMetaData, sstable_name
from ..lsm.wal import LogReader, LogWriter, WalRetention, WriteBatch
from ..obs import Observability
from .manifest import ManifestWriter, VersionEdit, recover_version, set_current

__all__ = ["DB", "DB_COUNTERS", "Snapshot", "WouldBlock", "db_counts"]

#: The counts STATS' ``db`` section reports, each read from one
#: registry counter.  ``compactions`` counts every task run (trivial
#: moves and aborted tasks included); ``compaction.count`` counts only
#: the merges that completed.
DB_COUNTERS = {
    "writes": "db.writes",
    "gets": "db.gets",
    "flushes": "db.flushes",
    "compactions": "db.compactions",
    "trivial_moves": "compaction.trivial_moves",
    "write_stalls": "db.write_stalls",
    "compaction_input_bytes": "compaction.input_bytes",
    "compaction_output_bytes": "compaction.output_bytes",
}


def db_counts(snapshot: dict) -> dict[str, int]:
    """The :data:`DB_COUNTERS` of a metrics snapshot (0 if never counted)."""
    counters = snapshot["counters"]
    return {field: counters.get(name, 0) for field, name in DB_COUNTERS.items()}


class Snapshot:
    """A consistent read point; release via DB.release_snapshot or `with`."""

    __slots__ = ("sequence", "_db", "_released")

    def __init__(self, sequence: int, db: "DB") -> None:
        self.sequence = sequence
        self._db = db
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._db.release_snapshot(self)
            self._released = True

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class DB:
    """An LSM-tree key-value store with pluggable compaction procedure."""

    def __init__(
        self,
        storage: Storage,
        options: Optional[Options] = None,
        compaction_spec: Optional[ProcedureSpec] = None,
        background: bool = False,
        observer=None,
        obs: Optional[Observability] = None,
        compute_pool=None,
    ) -> None:
        """``observer`` (optional) receives engine events for accounting:
        ``on_write(batch, wal_bytes)``, ``on_flush(meta)``,
        ``on_trivial_move(task)``, ``on_compaction(task, subtasks,
        stats)``.  Used by the bench harness to attribute virtual time
        (see :mod:`repro.bench.observer`).

        ``obs`` (optional) is the :class:`repro.obs.Observability`
        bundle this DB records into; by default metrics are collected
        and tracing is off.  Pass a bundle with an enabled tracer to
        capture an S1–S7 span timeline of every compaction
        (``dbtool trace`` does).

        ``compute_pool`` (optional) runs pipelined compactions' S2–S6
        compute stage on a shared externally owned pool instead of
        per-compaction threads; a :class:`repro.cluster.ShardedDB`
        passes one pool to all of its shards so aggregate compaction
        compute stays bounded."""
        self.obs = obs or Observability()
        # All engine I/O (WAL, SSTables, MANIFEST) flows through the
        # metered wrapper so per-device byte/op counters come for free.
        if not isinstance(storage, MeteredStorage):
            storage = MeteredStorage(storage, self.obs.metrics)
        self.storage = storage
        # A fault injector anywhere in the wrapper chain gets its
        # injection counts mirrored into this DB's metrics, and its
        # crash points fired from the engine's commit protocol.
        self._faulty = find_faulty(storage)
        if self._faulty is not None:
            self._faulty.attach_metrics(self.obs.metrics)
        #: storage names of quarantined (renamed-aside) corrupt tables.
        self._quarantined: list[str] = []
        self.options = options or Options()
        self.options.validate()
        self.compaction_spec = compaction_spec or ProcedureSpec.scp()
        self.compute_pool = compute_pool
        self.observer = observer
        self._m_writes = self.obs.metrics.counter("db.writes")
        self._m_gets = self.obs.metrics.counter("db.gets")
        #: ring of recent compaction records (dicts); see _record_compaction.
        self.compaction_log: list[dict] = []
        self._compaction_log_cap = 64
        # Lock-sanitizer-aware factories: plain primitives normally,
        # OrderedLock under REPRO_LOCK_SANITIZER=1 (see repro.analysis).
        # The mutex also guards the version set and manifest.
        self._lock = make_rlock("db.mutex")
        self._file_number_lock = make_lock("db.file_number")
        # Race-sanitizer marker for the version set + manifest state the
        # mutex guards; inert (NULL_STATE) outside REPRO_RACE_SANITIZER.
        self._version_state = shared_state("db.version")
        self._cache = LRUCache(
            self.options.block_cache_entries, metrics=self.obs.metrics
        )
        self._tables: dict[int, Table] = {}
        self._snapshots: list[Snapshot] = []
        self._closed = False
        self._sync_every = self.options.wal_sync_interval
        self._batches_since_sync = 0
        # Replication hooks: listeners observe every durable write
        # batch (``fn(base_seq, last_seq, record)`` under the DB lock);
        # retention keeps retired WALs around for follower catch-up.
        self._wal_listeners: list = []
        self._retention: Optional[WalRetention] = (
            WalRetention(self.storage, self.options.wal_retain_bytes)
            if self.options.wal_retain_bytes > 0
            else None
        )

        # -- recovery --------------------------------------------------
        version, next_file, last_seq, log_number, _ = recover_version(
            self.storage, self.options
        )
        self.version = version
        self._next_file = next_file
        self._sequence = last_seq
        # Compaction policy: fresh stores adopt the requested spec (or
        # leveling); existing stores reopen under the policy persisted
        # in their manifest, and a conflicting request fails loudly
        # rather than mixing layouts (see docs/COMPACTION.md).
        persisted = version.policy_spec
        requested = self.options.compaction_policy
        if requested is not None:
            spec = canonical_spec(requested, self.options)
            if persisted is not None and persisted != spec:
                raise PolicyMismatchError(
                    f"store was created with compaction policy "
                    f"{persisted!r} but open requested {spec!r}; pass "
                    f"compaction_policy=None (adopt) or {persisted!r}"
                )
        elif persisted is not None:
            spec = persisted
        else:
            spec = canonical_spec(None, self.options)  # legacy => leveled
        self.policy = make_policy(spec, self.options)
        self.version.policy_spec = self.policy.spec()
        self.memtable = MemTable(seed=0)
        self._replay_wal(log_number)
        if len(self.memtable):
            # Recovered writes must become durable *now*: a second
            # crash before any flush would otherwise lose them (the old
            # WAL is retired below once the new manifest commits).
            meta = self._build_table_from_memtable()
            self.version.add_file(0, meta)
            self.memtable = MemTable(seed=meta.number)

        # Fresh manifest describing the recovered state.
        manifest_name = f"MANIFEST-{self._new_file_number():06d}"
        self._manifest = ManifestWriter(self.storage, manifest_name)
        self._wal_number = self._new_file_number()
        self._wal = LogWriter(
            self.storage.create(self._wal_name(self._wal_number)),
            metrics=self.obs.metrics,
        )
        self._wal_first_seq = self._sequence + 1
        boot = VersionEdit(
            log_number=self._wal_number,
            next_file_number=self._next_file,
            last_sequence=self._sequence,
            repl_epoch=self.version.repl_epoch,
            policy_spec=self.version.policy_spec,
        )
        for level, meta in self.version.all_files():
            boot.add_file(level, meta)
        self._manifest.append(boot, sync=True)
        set_current(self.storage, manifest_name)
        # Recovered state is durable under the new manifest; everything
        # a crash may have left behind is now garbage (or quarantine).
        self._startup_gc()

        # -- background compaction --------------------------------------
        self._background = background
        self._bg_wake = threading.Condition(self._lock)
        self._bg_thread: Optional[threading.Thread] = None
        self._bg_error: Optional[BaseException] = None
        self._compacting = False
        if background:
            self._bg_thread = threading.Thread(
                target=self._background_loop, name="db-compaction", daemon=True
            )
            self._bg_thread.start()

    # ------------------------------------------------------------ util
    def _wal_name(self, number: int) -> str:
        return f"{number:06d}.log"

    def _new_file_number(self) -> int:
        # Own tiny lock: called from the compaction merge while the DB
        # lock is released in background mode.
        with self._file_number_lock:
            n = self._next_file
            self._next_file += 1
            return n

    def _replay_wal(self, log_number: Optional[int]) -> None:
        """Replay the recovered WAL into the memtable.

        The old WAL file itself is retired later by :meth:`_startup_gc`
        once the recovered state is durable elsewhere.  A torn tail
        (crash mid-append) is tolerated and counted in
        ``recovery.wal_torn_tail``.
        """
        if log_number is None:
            return
        name = self._wal_name(log_number)
        if not self.storage.exists(name):
            return
        reader = LogReader(self.storage.open(name))
        records = 0
        for record in reader:
            batch, base_seq = WriteBatch.decode(record)
            for offset, (kind, key, value) in enumerate(batch):
                self.memtable.add(base_seq + offset, kind, key, value)
            self._sequence = max(self._sequence, base_seq + len(batch) - 1)
            records += 1
        self.obs.metrics.counter("recovery.wal_records").inc(records)
        if reader.torn_tail:
            self.obs.metrics.counter("recovery.wal_torn_tail").inc()

    def _safe_delete(self, name: str) -> None:
        try:
            self.storage.delete(name)
        except StorageError:  # already gone / injected fault: best-effort
            pass

    def _startup_gc(self) -> None:
        """Post-recovery janitor pass (see docs/RECOVERY.md).

        Runs after the fresh manifest is committed and CURRENT swapped,
        so every file the new version does not reference is garbage
        from an earlier crash: orphan ``*.tmp`` (torn CURRENT swap),
        superseded ``MANIFEST-*``, retired/stray ``*.log``, and
        ``*.sst`` outputs whose install never committed.  Quarantined
        tables (``*.quarantined``) are kept and surfaced via
        ``get_property("quarantine")``.
        """
        metrics = self.obs.metrics
        referenced = {meta.name for _lv, meta in self.version.all_files()}
        current_wal = self._wal_name(self._wal_number)
        for name in self.storage.list():
            if name.endswith(".quarantined"):
                self._quarantined.append(name)
                metrics.counter("recovery.quarantine_found").inc()
            elif name.endswith(".tmp"):
                self._safe_delete(name)
                metrics.counter("recovery.tmp_removed").inc()
            elif name.startswith("MANIFEST-") and name != self._manifest.name:
                self._safe_delete(name)
                metrics.counter("recovery.manifests_removed").inc()
            elif name.endswith(".log") and name != current_wal:
                self._safe_delete(name)
                metrics.counter("recovery.logs_removed").inc()
            elif name.endswith(".sst") and name not in referenced:
                self._safe_delete(name)
                metrics.counter("recovery.orphans_removed").inc()

    def _crash_point(self, name: str) -> None:
        """Fire a named fault-injection crash point (no-op normally)."""
        if self._faulty is not None:
            self._faulty.crash_point(name)

    def _open_table(self, meta: FileMetaData, wait: bool = True) -> Table:
        table = self._tables.get(meta.number)
        if table is None:
            if not wait:
                raise WouldBlock(f"table {meta.name} is not open")
            table = Table(
                self.storage.open(meta.name),
                self.options,
                cache=self._cache,
                table_id=meta.number,
                key_range=(meta.smallest, meta.largest),
            )
            self._tables[meta.number] = table
        return table

    def _retire_table(self, number: int) -> None:
        """Forget a table the version no longer holds: drop it from the
        table cache and its blocks from the block cache.  Not closed: a
        concurrent scan may still be streaming from the old file (POSIX
        semantics: the open handle stays valid after deletion)."""
        table = self._tables.pop(number, None)
        if table is not None:
            table.evict()

    @contextmanager
    def _unlocked(self):
        """Release the DB mutex around a region, re-acquiring after.

        Used by the background compactor so foreground writes proceed
        during the merge; the caller must hold the lock exactly once.
        """
        self._lock.release()
        try:
            yield
        finally:
            self._lock.acquire()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("DB is closed")
        if self._bg_error is not None:
            raise RuntimeError("background compaction failed") from self._bg_error

    # ---------------------------------------------------------- writes
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one key."""
        self.write(WriteBatch().put(key, value))

    def delete(self, key: bytes) -> None:
        """Delete one key (writes a tombstone)."""
        self.write(WriteBatch().delete(key))

    def write(self, batch: WriteBatch) -> None:
        """Apply a batch atomically: WAL first, then memtable."""
        if len(batch) == 0:
            return
        with self._lock:
            self._check_open()
            self._maybe_stall()
            base_seq = self._sequence + 1
            self._sequence += len(batch)
            encoded = batch.encode(base_seq)
            self._crash_point("wal.append")
            self._wal.add_record(encoded)
            self._batches_since_sync += 1
            if self._sync_every and self._batches_since_sync >= self._sync_every:
                self._crash_point("wal.sync")
                self._wal.sync()
                self._batches_since_sync = 0
            for offset, (kind, key, value) in enumerate(batch):
                self.memtable.add(base_seq + offset, kind, key, value)
            self._m_writes.inc(len(batch))
            if self.observer is not None:
                self.observer.on_write(batch, len(encoded))
            self._notify_wal_listeners(
                base_seq, base_seq + len(batch) - 1, encoded
            )
            if self.memtable.approximate_bytes >= self.options.memtable_bytes:
                self._flush_memtable()
                self._after_shape_change()

    def _maybe_stall(self) -> None:
        """Paper §I: slow compaction causes write pauses."""
        if self.policy.write_stall(self.version):
            import time

            self.obs.metrics.counter("db.write_stalls").inc()
            events = self.obs.events
            if events.enabled:
                events.emit(
                    "stall.enter", l0_files=self.version.num_files(0)
                )
            t0 = time.perf_counter()
            with self.obs.tracer.span("write-stall", cat="stall"):
                if self._background:
                    while (
                        self.policy.write_stall(self.version)
                        and not self._closed
                    ):
                        self._bg_wake.notify_all()
                        self._bg_wake.wait(timeout=0.05)
                        if self._bg_error is not None:
                            raise RuntimeError(
                                "background compaction failed"
                            ) from self._bg_error
                else:
                    self._compact_until_quiet()
            stalled = time.perf_counter() - t0
            self.obs.metrics.histogram("db.stall_seconds").record(stalled)
            if events.enabled:
                events.emit(
                    "stall.exit",
                    seconds=round(stalled, 6),
                    l0_files=self.version.num_files(0),
                )

    # ---------------------------------------------------------- flush
    def _build_table_from_memtable(self) -> FileMetaData:
        """Write the current memtable as a new SSTable file."""
        number = self._new_file_number()
        name = sstable_name(number)
        with self.storage.create(name) as f:
            builder = TableBuilder(f, self.options)
            for ikey, value in self.memtable:
                builder.add(ikey, value)
            builder.finish()
            f.sync()
            return FileMetaData(
                number=number,
                file_size=builder.file_size,
                smallest=builder.smallest,
                largest=builder.largest,
            )

    def _flush_memtable(self) -> None:
        """Dump C0 into a new L0 SSTable (the paper's 'dump')."""
        if len(self.memtable) == 0:
            return
        import time

        t0 = time.perf_counter()
        with self.obs.tracer.span("flush", cat="flush"):
            meta = self._build_table_from_memtable()
            self._crash_point("flush.table_written")
            number = meta.number
            # Switch WAL before publishing the flush.
            old_wal_number = self._wal_number
            old_wal_first_seq = self._wal_first_seq
            self._wal.close()
            self._wal_number = self._new_file_number()
            self._wal = LogWriter(
                self.storage.create(self._wal_name(self._wal_number)),
                metrics=self.obs.metrics,
            )
            self._wal_first_seq = self._sequence + 1
            edit = VersionEdit(
                log_number=self._wal_number,
                next_file_number=self._next_file,
                last_sequence=self._sequence,
            ).add_file(0, meta)
            self._apply_edit(edit)
            self._crash_point("flush.installed")
            old_wal_name = self._wal_name(old_wal_number)
            if (
                self._retention is not None
                and old_wal_first_seq <= self._sequence
            ):
                # Keep the retired WAL for follower catch-up instead of
                # deleting it; the retention prunes oldest-first.
                self._retention.add(
                    old_wal_name,
                    old_wal_first_seq,
                    self._sequence,
                    self.storage.file_size(old_wal_name),
                )
            else:
                self.storage.delete(old_wal_name)
            self.memtable = MemTable(seed=number)
        self.obs.metrics.counter("db.flushes").inc()
        self.obs.metrics.counter("db.flush_bytes").inc(meta.file_size)
        flush_s = time.perf_counter() - t0
        self.obs.metrics.histogram("db.flush_seconds").record(flush_s)
        events = self.obs.events
        if events.enabled:
            events.emit(
                "flush",
                bytes=meta.file_size,
                seconds=round(flush_s, 6),
                l0_files=self.version.num_files(0),
            )
        if self.observer is not None:
            self.observer.on_flush(meta)

    def flush(self) -> None:
        """Force the memtable to disk (mainly for tests/benchmarks)."""
        with self._lock:
            self._check_open()
            self._flush_memtable()
            self._after_shape_change()

    # ------------------------------------------------------ replication
    @property
    def last_sequence(self) -> int:
        """Sequence of the most recent write (racy lock-free read)."""
        return self._sequence

    @property
    def repl_epoch(self) -> int:
        """Replication fencing epoch (bumped by ``dbtool promote``)."""
        return self.version.repl_epoch

    def set_repl_epoch(self, epoch: int) -> None:
        """Persist a new fencing epoch (synced manifest edit)."""
        with self._lock:
            self._check_open()
            if epoch < self.version.repl_epoch:
                raise ValueError(
                    f"epoch may not move backwards "
                    f"({epoch} < {self.version.repl_epoch})"
                )
            old = self.version.repl_epoch
            self._apply_edit(VersionEdit(repl_epoch=epoch))
            if self.obs.events.enabled:
                self.obs.events.emit("fence", epoch=epoch, previous=old)

    def add_wal_listener(self, fn) -> None:
        """Register ``fn(base_seq, last_seq, record)``; called under the
        DB lock after each batch reaches the WAL.  Keep it fast."""
        with self._lock:
            self._wal_listeners.append(fn)

    def remove_wal_listener(self, fn) -> None:
        with self._lock:
            if fn in self._wal_listeners:
                self._wal_listeners.remove(fn)

    def _notify_wal_listeners(
        self, base_seq: int, last_seq: int, record: bytes
    ) -> None:
        for fn in self._wal_listeners:
            fn(base_seq, last_seq, record)

    @property
    def wal_retention(self) -> Optional[WalRetention]:
        """The retired-WAL retention index (None unless enabled)."""
        return self._retention

    def sync_wal(self) -> None:
        """Force the live WAL durable (follower ack barrier)."""
        with self._lock:
            self._check_open()
            self._wal.sync()
            self._batches_since_sync = 0

    def apply_replicated(self, record: bytes) -> bool:
        """Apply one shipped WAL record (an encoded batch) verbatim.

        The record carries its own base sequence from the primary.
        Records at or below the local sequence are skipped (duplicate
        delivery after a reconnect); a gap — base sequence beyond
        local+1 — raises ValueError so the follower resubscribes
        rather than silently diverging.  Returns True when applied.
        """
        batch, base_seq = WriteBatch.decode(record)
        with self._lock:
            self._check_open()
            last_seq = base_seq + len(batch) - 1
            if last_seq <= self._sequence:
                return False  # duplicate redelivery
            if base_seq != self._sequence + 1:
                raise ValueError(
                    f"replication gap: record starts at {base_seq}, "
                    f"local sequence is {self._sequence}"
                )
            self._crash_point("wal.append")
            self._wal.add_record(record)
            self._batches_since_sync += 1
            for offset, (kind, key, value) in enumerate(batch):
                self.memtable.add(base_seq + offset, kind, key, value)
            self._sequence = last_seq
            self._m_writes.inc(len(batch))
            self._notify_wal_listeners(base_seq, last_seq, record)
            if self.memtable.approximate_bytes >= self.options.memtable_bytes:
                self._flush_memtable()
                self._after_shape_change()
            return True

    def checkpoint_files(self) -> tuple[int, list[tuple[int, FileMetaData, "ReadableFile"]]]:
        """Open a consistent snapshot of the tree for SST streaming.

        Flushes the memtable so every write ≤ the returned sequence is
        in some SSTable, then opens a read handle per live table.  The
        handles stay valid even if compaction deletes the files while
        the caller streams (POSIX/MemStorage semantics), so the DB
        lock is not held during the transfer.  Caller closes handles.
        """
        with self._lock:
            self._check_open()
            self._flush_memtable()
            self._version_state.read()
            last_seq = self._sequence
            files = [
                (level, meta, self.storage.open(meta.name))
                for level, meta in self.version.all_files()
            ]
        return last_seq, files

    def _apply_edit(self, edit: VersionEdit) -> None:
        # Synced: an edit that deletes a WAL's data (flush) or an
        # input table (compaction) must be durable before the caller
        # removes those files, or a power cut loses acknowledged
        # writes.  Edits are rare (per flush/compaction), so the fsync
        # is cheap relative to the work that produced them.
        self._crash_point("manifest.append")
        self._version_state.write()
        self._manifest.append(edit, sync=True)
        edit.apply(self.version)
        # Tree-shape gauges for live scrapes: edits are per
        # flush/compaction, so the two gauge writes are cheap.
        self.obs.metrics.gauge("db.l0_files").set(self.version.num_files(0))
        self.obs.metrics.gauge("db.live_files").set(
            sum(
                self.version.num_files(lv)
                for lv in range(self.options.num_levels)
            )
        )

    def _after_shape_change(self) -> None:
        if self._background:
            self._bg_wake.notify_all()
        else:
            self._compact_until_quiet()

    # ------------------------------------------------------ compaction
    def _compact_until_quiet(self) -> None:
        while True:
            task = self.policy.pick(self.version)
            if task is None:
                return
            self._run_compaction(task)

    def compact_once(self) -> bool:
        """Run at most one due compaction; True if one ran.

        Only meaningful in synchronous mode; with a background thread
        use :meth:`wait_for_compactions` instead.
        """
        if self._background:
            raise RuntimeError(
                "compact_once() is for synchronous mode; "
                "use wait_for_compactions() with background=True"
            )
        with self._lock:
            self._check_open()
            task = self.policy.pick(self.version)
            if task is None:
                return False
            self._run_compaction(task)
            return True

    def compact_all(self) -> int:
        """Run compactions until the tree is quiescent; returns count."""
        n = 0
        while self.compact_once():
            n += 1
        return n

    def _smallest_snapshot(self) -> int:
        if self._snapshots:
            return min(s.sequence for s in self._snapshots)
        return self._sequence

    def _can_drop_deletes(self, task: CompactionTask) -> bool:
        """Tombstones may be dropped only when no older data can exist
        for the compacted range once the outputs are installed.

        Older data can hide in two places: levels below the output
        level (the classic leveled case), and — under tiered layouts —
        *other runs at the output level itself* that are not consumed
        by this task (they were installed earlier, so they hold older
        versions a dropped tombstone would resurrect)."""
        lo, hi = task.key_range_user()
        input_numbers = {m.number for m in task.all_inputs()}
        for meta in self.version.overlapping_files(task.output_level, lo, hi):
            if meta.number not in input_numbers:
                return False
        if task.output_level >= self.options.num_levels - 1:
            return True
        return not any(
            self.version.overlapping_files(level, lo, hi)
            for level in range(task.output_level + 1, self.options.num_levels)
        )

    def _run_compaction(self, task: CompactionTask, unlock: bool = False) -> None:
        """Execute one compaction task.  Caller holds the DB lock.

        With ``unlock=True`` (background mode, single compactor) the
        lock is released during the merge so foreground writes proceed;
        version edits are applied under the lock afterwards.
        """
        import time

        self.obs.metrics.counter("db.compactions").inc()
        self.obs.metrics.counter(f"compaction.policy.{self.policy.name}").inc()
        if task.is_trivial_move():
            meta = task.inputs_upper[0]
            edit = VersionEdit()
            edit.delete_file(task.level, meta.number)
            edit.add_file(task.output_level, replace(meta, run=task.output_run))
            self._apply_edit(edit)
            self.obs.metrics.counter("compaction.trivial_moves").inc()
            if self.observer is not None:
                self.observer.on_trivial_move(task)
            return

        # Inputs newest-first: upper level files (for L0, newest file
        # first), then lower level files in key order.
        upper = list(task.inputs_upper)
        if task.level == 0:
            upper.sort(key=lambda m: m.number, reverse=True)
        drop_deletes = self._can_drop_deletes(task)
        smallest_snapshot = self._smallest_snapshot()
        events = self.obs.events
        if events.enabled:
            events.emit(
                "compaction.start",
                level=task.level,
                output_level=task.output_level,
                inputs=len(task.all_inputs()),
                input_bytes=sum(m.file_size for m in task.all_inputs()),
            )

        # Transient I/O errors get bounded retries with exponential
        # backoff; corrupt inputs are quarantined and the task aborts
        # gracefully (the tree shrinks by the damaged table instead of
        # the DB wedging).  File numbers are never reused, so partial
        # outputs of a failed attempt are swept by number range.
        attempt = 0
        while True:
            first_number = self._next_file
            try:
                tables = [self._open_table(m) for m in upper]
                tables += [self._open_table(m) for m in task.inputs_lower]
                with self._unlocked() if unlock else nullcontext():
                    t0 = time.perf_counter()
                    with self.obs.tracer.span(
                        "compaction.run",
                        cat="compaction",
                        policy=self.policy.spec(),
                        level=task.level,
                        output_level=task.output_level,
                    ):
                        outputs, stats, subtasks = compact_tables(
                            tables,
                            self.storage,
                            self.options,
                            file_namer=lambda: sstable_name(
                                self._new_file_number()
                            ),
                            spec=self.compaction_spec,
                            drop_deletes=drop_deletes,
                            smallest_snapshot=smallest_snapshot,
                            tracer=self.obs.tracer,
                            compute_pool=self.compute_pool,
                        )
                    elapsed = time.perf_counter() - t0
                break
            except TransientIOError:
                self._gc_partial_outputs(first_number)
                if attempt >= self.options.compaction_retries:
                    self.obs.metrics.counter("compaction.failures").inc()
                    raise
                attempt += 1
                self.obs.metrics.counter("compaction.retries").inc()
                delay = self.options.compaction_retry_backoff_s * (
                    2 ** (attempt - 1)
                )
                if events.enabled:
                    events.emit(
                        "compaction.retry",
                        level=task.level,
                        attempt=attempt,
                        backoff_s=delay,
                    )
                if delay > 0:
                    with self._unlocked() if unlock else nullcontext():
                        time.sleep(delay)
            except TableCorruption as exc:
                self._gc_partial_outputs(first_number)
                if not self._quarantine_corrupt_inputs(task, exc):
                    # No input is individually corrupt (e.g. damage in
                    # an already-deleted cache entry): nothing to heal.
                    raise
                if events.enabled:
                    events.emit(
                        "compaction.quarantine",
                        level=task.level,
                        cause=str(exc),
                    )
                return

        self._crash_point("compaction.outputs_written")
        edit = VersionEdit(
            next_file_number=self._next_file, last_sequence=self._sequence
        )
        for meta in task.inputs_upper:
            edit.delete_file(task.level, meta.number)
        for meta in task.inputs_lower:
            edit.delete_file(task.output_level, meta.number)
        for meta in outputs:
            edit.add_file(task.output_level, replace(meta, run=task.output_run))
        self._apply_edit(edit)
        self._crash_point("compaction.installed")
        for meta in task.all_inputs():
            self._retire_table(meta.number)
            self.storage.delete(meta.name)
        metrics = self.obs.metrics
        metrics.counter("compaction.count").inc()
        metrics.counter("compaction.input_bytes").inc(stats.input_bytes)
        metrics.counter("compaction.output_bytes").inc(stats.output_bytes)
        metrics.counter("compaction.passthrough_blocks").inc(stats.passthrough_blocks)
        metrics.counter("compaction.passthrough_bytes").inc(stats.passthrough_bytes)
        metrics.counter("compaction.reused_blocks").inc(stats.reused_blocks)
        metrics.counter("compaction.reused_bytes").inc(stats.reused_bytes)
        metrics.histogram("compaction.seconds").record(elapsed)
        if events.enabled:
            events.emit(
                "compaction.end",
                level=task.level,
                output_level=task.output_level,
                outputs=len(outputs),
                output_bytes=stats.output_bytes,
                seconds=round(elapsed, 6),
                **{"pass": stats.passthrough_blocks},
                reuse=stats.reused_blocks,
            )
        self._record_compaction(
            {
                "level": task.level,
                "output_level": task.output_level,
                "output_run": task.output_run,
                "inputs": len(task.all_inputs()),
                "outputs": len(outputs),
                "subtasks": stats.n_subtasks,
                "input_bytes": stats.input_bytes,
                "output_bytes": stats.output_bytes,
                "pass": stats.passthrough_blocks,
                "reuse": stats.reused_blocks,
                "seconds": elapsed,
                "procedure": self.compaction_spec.kind,
                "policy": self.policy.spec(),
            }
        )
        if self.observer is not None:
            self.observer.on_compaction(task, subtasks, stats)

    def _gc_partial_outputs(self, first_number: int) -> None:
        """Delete output files a failed compaction attempt left behind.

        Caller holds the DB lock.  File numbers are monotonic and
        never reused, so every ``*.sst`` numbered in
        ``[first_number, next_file)`` that the version does not
        reference is a partial output of the failed attempt (a
        concurrent flush's table *is* referenced and survives).
        """
        referenced = {meta.number for _lv, meta in self.version.all_files()}
        for number in range(first_number, self._next_file):
            if number in referenced:
                continue
            name = sstable_name(number)
            self._retire_table(number)
            if self.storage.exists(name):
                self._safe_delete(name)

    def _quarantine_corrupt_inputs(
        self, task: CompactionTask, cause: Exception
    ) -> bool:
        """Rename corrupt input tables aside; returns True if any found.

        Each input is re-verified individually (full iteration checks
        every block checksum, bypassing caches); the damaged ones are
        renamed to ``<name>.quarantined``, removed from the version via
        a synced manifest edit, and reported through
        ``get_property("quarantine")``.  The keys they held degrade to
        older versions / absence — the DB keeps serving instead of
        failing every future compaction of this range.
        """
        labelled = [(task.level, m) for m in task.inputs_upper]
        labelled += [(task.output_level, m) for m in task.inputs_lower]
        corrupt: list[tuple[int, FileMetaData]] = []
        for level, meta in labelled:
            try:
                table = Table(self.storage.open(meta.name), self.options)
                for _ikey, _value in table:
                    pass
                table.close()
            except Exception:
                corrupt.append((level, meta))
        if not corrupt:
            return False
        edit = VersionEdit(
            next_file_number=self._next_file, last_sequence=self._sequence
        )
        for level, meta in corrupt:
            quarantine_name = meta.name + ".quarantined"
            self._retire_table(meta.number)
            self.storage.rename(meta.name, quarantine_name)
            edit.delete_file(level, meta.number)
            self._quarantined.append(quarantine_name)
            self.obs.metrics.counter("compaction.quarantined").inc()
        self._apply_edit(edit)
        return True

    def _background_loop(self) -> None:
        while True:
            with self._lock:
                while (
                    not self._closed
                    and not self.policy.needs_compaction(self.version)
                ):
                    self._bg_wake.wait(timeout=0.1)
                if self._closed:
                    return
                task = self.policy.pick(self.version)
                if task is None:
                    continue
                self._compacting = True
                try:
                    self._run_compaction(task, unlock=True)
                except TransientIOError:
                    # Retries exhausted ("compaction.failures" already
                    # counted): keep the DB serving and try again on
                    # the next wake instead of wedging permanently.
                    self._bg_wake.wait(timeout=0.1)
                except BaseException as exc:  # pragma: no cover - defensive
                    self._bg_error = exc
                    return
                finally:
                    self._compacting = False
                    self._bg_wake.notify_all()

    def wait_for_compactions(self) -> None:
        """Block until no compaction is due (background mode helper)."""
        with self._lock:
            while (
                self.policy.needs_compaction(self.version)
                and self._bg_error is None
                and not self._closed
            ):
                self._bg_wake.notify_all()
                self._bg_wake.wait(timeout=0.05)
            self._check_open()

    # ------------------------------------------------------------ reads
    def get(
        self,
        key: bytes,
        snapshot: Optional[Snapshot] = None,
        wait: bool = True,
    ) -> Optional[bytes]:
        """Newest visible value for ``key``, or None.

        ``wait=False`` is the non-waiting read (RocksDB's
        ``kBlockCacheTier``) for callers that must not block, such as
        the server's event loop: it try-acquires the DB mutex and
        answers from the memtable, already-open tables and the block
        cache only.  The moment it would have to wait for the mutex,
        open a table or read the device it raises :class:`WouldBlock`
        with nothing counted; repeat the call with ``wait=True``.
        """
        seq = snapshot.sequence if snapshot is not None else MAX_SEQUENCE
        # One probe per GET: the memtable seeks with it, each table
        # bisects with its sort key.
        probe = lookup_key(key, seq)
        order = internal_order(probe)
        if not self._lock.acquire(wait):
            raise WouldBlock("db.mutex is held")
        try:
            self._check_open()
            result = self.memtable.get(key, seq, probe)
            tables = (
                ()
                if result.found
                else [
                    self._open_table(meta, wait)
                    for _, meta in self.version.files_for_get(key)
                ]
            )
        finally:
            self._lock.release()
        value = None if result.deleted else result.value
        for table in tables:
            hit = table.get(probe, wait, order)
            if hit is None:
                continue
            ikey, found = hit
            if ikey[:-8] != key:
                continue
            # The trailer is little-endian: its first byte is the kind.
            value = None if ikey[-8] == KIND_DELETE else found
            break
        # Counted once the answer is known, so a WouldBlock probe and
        # its wait=True repeat are one get.
        self._m_gets.inc()
        return value

    def multi_get(
        self, keys, snapshot: Optional[Snapshot] = None
    ) -> list[Optional[bytes]]:
        """Batched point lookups (order-preserving)."""
        return [self.get(key, snapshot=snapshot) for key in keys]

    def approximate_size(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> int:
        """Approximate on-disk bytes holding user keys in [start, end).

        Uses file metadata only (no I/O beyond already-open indexes):
        files fully inside the range count whole; files straddling a
        bound count half.  The memtable is excluded (use the
        ``approximate-memory-usage`` property).
        """
        total = 0.0
        with self._lock:
            self._check_open()
            for _level, meta in self.version.all_files():
                lo = meta.smallest[:-8]
                hi = meta.largest[:-8]
                if end is not None and lo >= end:
                    continue
                if start is not None and hi < start:
                    continue
                inside_lo = start is None or lo >= start
                inside_hi = end is None or hi < end
                if inside_lo and inside_hi:
                    total += meta.file_size
                else:
                    total += meta.file_size / 2.0
        return int(total)

    def snapshot(self) -> Snapshot:
        """Pin the current sequence for consistent reads."""
        with self._lock:
            self._check_open()
            snap = Snapshot(self._sequence, self)
            self._snapshots.append(snap)
            return snap

    def release_snapshot(self, snap: Snapshot) -> None:
        with self._lock:
            if snap in self._snapshots:
                self._snapshots.remove(snap)

    def cursor(self, snapshot: Optional[Snapshot] = None) -> "Cursor":
        """A streaming, snapshot-consistent cursor over live keys.

        Captures the tree shape once; remains valid across concurrent
        writes and background compactions (it pins its view's sequence
        and keeps the handles of the tables it covers).
        """
        from .cursor import Cursor

        with self._lock:
            self._check_open()
            seq = snapshot.sequence if snapshot is not None else self._sequence
            memtables = [self.memtable]
            l0 = [self._open_table(m) for m in reversed(self.version.files[0])]
            # One disjoint key-ordered table list per sorted run, newer
            # runs first within a level (they shadow older ones); a
            # leveled store has one run per level, so this degenerates
            # to the classic per-level list.
            levels = [
                [self._open_table(m) for m in run_files]
                for level in range(1, self.options.num_levels)
                for _run_id, run_files in reversed(self.version.runs(level))
            ]
        return Cursor(memtables, l0, levels, seq)

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot: Optional[Snapshot] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered iteration over live user keys in [start, end)."""
        return self.cursor(snapshot).items(start, end)

    def scan_reverse(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot: Optional[Snapshot] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """The [start, end) window in *descending* key order."""
        return self.cursor(snapshot).items_reverse(start, end)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All live (key, value) pairs in key order."""
        return self.scan()

    # ------------------------------------------------------------ admin
    def write_stalled(self, keys=None) -> bool:
        """True when a write would currently park in the L0 stall.

        Lock-free racy read (momentary staleness is fine: the caller —
        the network server's backpressure check — re-evaluates every
        request).  ``keys`` is accepted for signature compatibility
        with ``ShardedDB.write_stalled`` and ignored: a single DB owns
        every key.
        """
        return self.policy.write_stall(self.version)

    def num_files(self, level: int) -> int:
        with self._lock:
            return self.version.num_files(level)

    def level_bytes(self, level: int) -> int:
        with self._lock:
            return self.version.level_bytes(level)

    def total_bytes(self) -> int:
        with self._lock:
            return self.version.total_bytes()

    def describe(self) -> str:
        with self._lock:
            return (
                f"policy={self.policy.spec()}\n{self.version.describe()}"
            )

    def compact_range(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> int:
        """Manually compact every level holding data in [start, end].

        Flushes the memtable, then pushes overlapping files level by
        level until everything in the range sits at its deepest
        occupied level.  Returns the number of compactions executed.
        Synchronous regardless of background mode (waits for the
        background thread's slot by holding the lock between tasks).
        """
        n = 0
        with self._lock:
            self._check_open()
            self._flush_memtable()
        for level in range(0, self.options.num_levels - 1):
            while True:
                with self._lock:
                    self._check_open()
                    # Never race the background compactor over one task.
                    while self._compacting:
                        self._bg_wake.wait(timeout=0.05)
                    task = self.policy.pick_for_range(
                        self.version, level, start, end
                    )
                    if task is None:
                        break
                    self._run_compaction(task)
                    n += 1
        return n

    def _record_compaction(self, record: dict) -> None:
        self.compaction_log.append(record)
        if len(self.compaction_log) > self._compaction_log_cap:
            del self.compaction_log[0]

    def metrics_snapshot(self) -> dict:
        """Every count this DB keeps: its registry's snapshot."""
        return self.obs.metrics.snapshot()

    def get_property(self, name: str) -> Optional[str]:
        """LevelDB-style introspection properties.

        Supported: ``num-files-at-level<N>``, ``stats``, ``sstables``,
        ``approximate-memory-usage``, ``total-bytes``,
        ``compaction-policy`` (the canonical policy spec),
        ``compaction-log`` (a policy/per-level-run-count header, then
        one line per recent compaction, newest
        last), ``metrics`` (the full :class:`repro.obs.MetricsRegistry`
        snapshot as JSON), ``io-stats`` (per-device read/write/sync
        ops and bytes), ``cache-stats`` (block-cache hit/miss/
        eviction counts and hit rate), and ``quarantine`` (one line
        per corrupt table renamed aside by the self-healing compaction
        path or found at recovery; ``(none)`` when clean).  Returns
        None for unknown names; raises RuntimeError on a closed DB.
        """
        with self._lock:
            self._check_open()
            if name.startswith("num-files-at-level"):
                try:
                    level = int(name[len("num-files-at-level"):])
                except ValueError:
                    return None
                if not 0 <= level < self.options.num_levels:
                    return None
                return str(self.version.num_files(level))
            if name == "stats":
                s = db_counts(self.metrics_snapshot())
                return (
                    f"writes={s['writes']} gets={s['gets']} "
                    f"flushes={s['flushes']} "
                    f"compactions={s['compactions']} "
                    f"trivial_moves={s['trivial_moves']} "
                    f"stalls={s['write_stalls']} "
                    f"compacted_mb={s['compaction_input_bytes'] / 1e6:.2f}"
                )
            if name == "sstables":
                return self.version.describe()
            if name == "approximate-memory-usage":
                return str(self.memtable.approximate_bytes)
            if name == "total-bytes":
                return str(self.version.total_bytes())
            if name == "compaction-log":
                lines = [
                    f"L{r['level']}->L{r.get('output_level', r['level'] + 1)} "
                    f"{r['procedure']} "
                    f"policy={r.get('policy', self.policy.spec())} "
                    f"inputs={r['inputs']} "
                    f"subtasks={r['subtasks']} "
                    f"in={r['input_bytes']} out={r['output_bytes']} "
                    f"pass={r['pass']} reuse={r['reuse']} "
                    f"{r['seconds'] * 1e3:.1f}ms"
                    for r in self.compaction_log
                ]
                if not lines:
                    return "(no compactions yet)"
                runs = " ".join(
                    f"L{lv}={self.version.num_runs(lv)}"
                    for lv in range(self.options.num_levels)
                    if self.version.files[lv]
                )
                header = (
                    f"policy={self.policy.spec()} "
                    f"runs[{runs or 'empty'}]"
                )
                return "\n".join([header, *lines])
            if name == "compaction-policy":
                return self.policy.spec()
            if name == "metrics":
                return json.dumps(self.metrics_snapshot(), sort_keys=True)
            if name == "io-stats":
                items = self.obs.metrics.items_with_prefix("io.")
                lines = [f"{key}={metric.value}" for key, metric in items]
                return "\n".join(lines) if lines else "(no io recorded)"
            if name == "quarantine":
                return "\n".join(self._quarantined) if self._quarantined else "(none)"
            if name == "cache-stats":
                counters = self.metrics_snapshot()["counters"]
                hits, misses = counters["cache.hits"], counters["cache.misses"]
                lookups = hits + misses
                return (
                    f"hits={hits} misses={misses} "
                    f"evictions={counters['cache.evictions']} "
                    f"hit_rate={hits / lookups if lookups else 0.0:.4f}"
                )
            return None

    def close(self) -> None:
        """Flush WAL state and stop background work (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._bg_wake.notify_all()
        if self._bg_thread is not None:
            self._bg_thread.join(timeout=5)
        with self._lock:
            self._wal.sync()
            self._wal.close()
            self._manifest.append(
                VersionEdit(
                    next_file_number=self._next_file,
                    last_sequence=self._sequence,
                    log_number=self._wal_number,
                ),
                sync=True,
            )
            self._manifest.close()
            # Release table handles deterministically instead of
            # leaning on GC finalizers (live cursors keep their own
            # handles; see DB.cursor).
            for table in self._tables.values():
                table.close()
            self._tables.clear()

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
