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
"""

from __future__ import annotations

from typing import Callable, Optional

from ..devices.vfs import Storage
from .ikey import internal_compare
from .options import Options
from .table_builder import EncodedBlock, TableWriter
from .version import FileMetaData, sstable_number

__all__ = ["EncodedBlock", "TableSink"]


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
        # Durability barrier: the version edit that installs this file
        # syncs the MANIFEST, so the file itself must hit stable
        # storage first — otherwise a power cut leaves a durable
        # reference to a vanished table.
        writer.file.sync()
        writer.file.close()
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

    def finish(self) -> list[FileMetaData]:
        """Seal the current file (if any) and return all outputs."""
        self._finish_file()
        return self.outputs
