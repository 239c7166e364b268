"""Assemble SSTables from pre-encoded data blocks.

The pipelined compaction's *compute* stage finishes blocks completely —
merged, compressed, checksummed (S4–S6) — so the *write* stage must
only append bytes and track index metadata (S7).  :class:`TableSink`
is that write stage's target: it receives :class:`EncodedBlock`
artifacts in key order, cuts a new output file whenever the current one
reaches ``options.sstable_bytes`` (the paper's "multiple size-limited
SSTables"), and finishes each file with filter/index/footer.

Contrast with :class:`repro.lsm.table_builder.TableBuilder`, which does
the compression/checksumming itself and is used by the (sequential)
memtable flush path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..codec.checksum import get_checksummer
from ..codec.compress import get_codec
from ..devices.vfs import Storage
from .blockfmt import BlockBuilder
from .bloom import BloomFilterBuilder
from .ikey import internal_compare
from .options import Options
from .table_format import BlockHandle, Footer, encode_block_contents
from .version import FileMetaData, sstable_number

__all__ = ["EncodedBlock", "TableSink"]


@dataclass(frozen=True)
class EncodedBlock:
    """A finished data block plus the metadata the sink needs.

    ``stored`` is payload + 5-byte trailer, exactly as written to disk.
    ``key_hashes`` are :func:`repro.lsm.bloom.bloom_hash` values of the
    block's user keys (for the output table's filter).
    ``uncompressed_bytes`` feeds compaction-bandwidth accounting.
    How a compaction made the block, for its accounting (the sink treats
    all alike): ``passthrough`` marks an input block of a single-run
    sub-task handed on as stored (no S4–S6); ``reused`` the same for an
    input block of a multi-run sub-task, spliced before S4 because the
    merge would only reproduce it.
    """

    stored: bytes
    first_key: bytes
    last_key: bytes
    num_entries: int
    key_hashes: tuple[int, ...] = ()
    uncompressed_bytes: int = 0
    passthrough: bool = False
    reused: bool = False


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
        self._checksummer = get_checksummer(options.checksum)
        self.outputs: list[FileMetaData] = []
        self.output_names: list[str] = []
        self._file = None
        self._name: Optional[str] = None
        self._offset = 0
        self._index: Optional[BlockBuilder] = None
        self._bloom: Optional[BloomFilterBuilder] = None
        self._smallest: Optional[bytes] = None
        self._largest: Optional[bytes] = None
        self._num_entries = 0
        self._last_key: Optional[bytes] = None
        self.blocks_written = 0
        self.bytes_written = 0
        self.entries_written = 0

    def _open_file(self) -> None:
        self._name = self.file_namer()
        self._file = self.storage.create(self._name)
        self._offset = 0
        self._index = BlockBuilder(1, compare=internal_compare)
        self._bloom = BloomFilterBuilder(self.options.bloom_bits_per_key)
        self._smallest = None
        self._largest = None
        self._num_entries = 0

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
        if self._file is None:
            self._open_file()
        handle = BlockHandle(self._offset, len(block.stored) - 5)
        self._file.append(block.stored)
        self._offset += len(block.stored)
        # Index key: the block's own last key (a valid upper bound; we
        # cannot shorten toward an unknown next block here).
        self._index.add(block.last_key, handle.encode())
        self._bloom.add_hashes(block.key_hashes)
        if self._smallest is None:
            self._smallest = block.first_key
        self._largest = block.last_key
        self._last_key = block.last_key
        self._num_entries += block.num_entries
        self.blocks_written += 1
        self.bytes_written += len(block.stored)
        self.entries_written += block.num_entries
        if self._offset >= self.options.sstable_bytes:
            self._finish_file()

    def _finish_file(self) -> None:
        if self._file is None:
            return
        null = get_codec("null")
        if len(self._bloom) and self.options.bloom_bits_per_key > 0:
            filter_blob = self._bloom.finish()
        else:
            filter_blob = b""
        stored = encode_block_contents(filter_blob, null, self._checksummer)
        filter_handle = BlockHandle(self._offset, len(stored) - 5)
        self._file.append(stored)
        self._offset += len(stored)
        index_raw = self._index.finish()
        stored = encode_block_contents(index_raw, null, self._checksummer)
        index_handle = BlockHandle(self._offset, len(stored) - 5)
        self._file.append(stored)
        self._offset += len(stored)
        footer = Footer(filter_handle, index_handle, self._num_entries)
        self._file.append(footer.encode())
        self._offset += len(footer.encode())
        # Durability barrier: the version edit that installs this file
        # syncs the MANIFEST, so the file itself must hit stable
        # storage first — otherwise a power cut leaves a durable
        # reference to a vanished table.
        self._file.sync()
        self._file.close()
        self.outputs.append(
            FileMetaData(
                number=sstable_number(self._name),
                file_size=self._offset,
                smallest=self._smallest,
                largest=self._largest,
                file_name=self._name,
            )
        )
        self.output_names.append(self._name)
        self._file = None
        self._name = None

    def finish(self) -> list[FileMetaData]:
        """Seal the current file (if any) and return all outputs."""
        self._finish_file()
        return self.outputs
