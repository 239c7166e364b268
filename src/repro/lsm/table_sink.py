"""Cut a compaction's output into size-limited SSTables.

The pipelined compaction's *compute* stage finishes blocks completely —
merged, compressed, checksummed (S4–S6) — so the *write* stage only
appends them (S7).  :class:`TableSink` is that stage's target: it
receives :class:`EncodedBlock` s in key order, starts a new output file
whenever the current one reaches ``options.sstable_bytes`` (the paper's
"multiple size-limited SSTables"), and names, syncs, closes and
describes (:class:`FileMetaData`) each one.  The file itself — data
blocks, filter, index, footer — is written by the flush's writer,
:class:`repro.lsm.table_builder.TableWriter`.

Durability is one barrier per compaction, not one per table.  A
finished table is flushed to the kernel and *held* open, unsynced;
:meth:`TableSink.finish` syncs every held table and only then closes
them, before the caller can reference any of them in a version edit.
The syncs stay one per table, but issued back to back they let a
journaling file system commit several files at once, and the write
stage stops paying a commit per table.  At most :data:`MAX_HELD_TABLES`
tables are held: reaching the cap syncs the group early.
:meth:`TableSink.abandon` closes what a failed compaction holds without
syncing it; the caller deletes the files.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..devices.vfs import Storage, WritableFile
from .ikey import internal_compare
from .options import Options
from .table_builder import EncodedBlock, TableWriter
from .version import FileMetaData, sstable_number

__all__ = ["EncodedBlock", "MAX_HELD_TABLES", "TableSink"]

#: Finished, unsynced output tables a sink holds open at most.  The cap
#: bounds file descriptors (one per held table), not bytes: a held table
#: is already flushed.  On ext4, caps of 16, 32 and 64 measured alike;
#: a cap of 4 spent twice as long in fsync.
MAX_HELD_TABLES = 16


class TableSink:
    """Write stage target: streams encoded blocks into output tables."""

    def __init__(
        self,
        storage: Storage,
        options: Options,
        file_namer: Callable[[], str],
    ) -> None:
        """``file_namer`` returns the name for each new output file."""
        self.storage = storage
        self.options = options
        self.file_namer = file_namer
        self.outputs: list[FileMetaData] = []
        self.output_names: list[str] = []
        self._writer: Optional[TableWriter] = None
        self._name: Optional[str] = None
        self._held: list[WritableFile] = []  # finished, not yet synced
        self._last_key: Optional[bytes] = None
        self.blocks_written = 0
        self.bytes_written = 0
        self.entries_written = 0

    def append(self, block: EncodedBlock) -> None:
        """Append one finished block; blocks must arrive in key order."""
        if block.num_entries <= 0:
            return
        if self._last_key is not None and (
            internal_compare(block.first_key, self._last_key) <= 0
        ):
            raise ValueError(
                f"blocks out of order: first_key {block.first_key!r} after "
                f"{self._last_key!r}"
            )
        if self._writer is None:
            self._name = self.file_namer()
            self._writer = TableWriter(self.storage.create(self._name), self.options)
        self._writer.append(block)
        self._last_key = block.last_key
        self.blocks_written += 1
        self.bytes_written += len(block.stored)
        self.entries_written += block.num_entries
        if self._writer.size >= self.options.sstable_bytes:
            self._finish_file()

    def _finish_file(self) -> None:
        writer = self._writer
        if writer is None:
            return
        writer.finish()
        writer.file.flush()
        self._held.append(writer.file)
        self.outputs.append(
            FileMetaData(
                number=sstable_number(self._name),
                file_size=writer.size,
                smallest=writer.smallest,
                largest=writer.largest,
                file_name=self._name,
            )
        )
        self.output_names.append(self._name)
        self._writer = None
        self._name = None
        if len(self._held) >= MAX_HELD_TABLES:
            self._sync_held()

    def _sync_held(self) -> None:
        # Durability barrier: the version edit that installs these
        # files syncs the MANIFEST, so the files must hit stable storage
        # first — otherwise a power cut leaves a durable reference to a
        # vanished table.  All syncs go before any close, so a failed
        # sync leaves every handle held for abandon().
        for file in self._held:
            file.sync()
        for file in self._held:
            file.close()
        self._held.clear()

    def finish(self) -> list[FileMetaData]:
        """Seal the current file (if any), sync and close every output,
        and return them all."""
        self._finish_file()
        self._sync_held()
        return self.outputs

    def abandon(self) -> None:
        """Close every open output without syncing it (a failed
        compaction: its files are garbage for the caller to delete)."""
        if self._writer is not None:
            self._held.append(self._writer.file)
            self._writer = None
        for file in self._held:
            try:
                file.close()
            except OSError:  # the compaction's own error wins
                pass
        self._held.clear()
