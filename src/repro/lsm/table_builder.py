"""SSTable writing: one block cutter, one per-file writer, one format.

A memtable flush and every compaction sub-task end in the same steps
(paper §II-A): sorted entries are cut into data blocks
(:class:`BlockCutter`, S4's builder), each block is compressed and
framed (S5, S6: :mod:`repro.lsm.table_format`), and
:class:`TableWriter` appends the blocks and closes the file with its
filter, index and footer (S7).  The index holds one entry per data
block, keyed by the block's own last internal key; its value is the
block's handle, the block's facts (first key, entry count, plain bit:
:func:`repro.lsm.table_format.encode_block_facts`) and the block's
bloom filter piece, which the cutter builds over the block's user keys.
A compaction that copies a block as stored copies its facts and piece
with it.  The filter block is written empty; index and filter are
stored under the ``null`` tag.

:class:`TableBuilder` is the flush's push-style front over the three.
:class:`repro.lsm.table_sink.TableSink` cuts a compaction's output into
size-limited files, each one written by a :class:`TableWriter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..codec.checksum import get_checksummer
from ..codec.compress import get_codec
from ..devices.vfs import WritableFile
from .blockfmt import BlockBuilder
from .bloom import block_filter
from .ikey import KIND_DELETE, internal_compare
from .options import Options
from .table_format import (
    BLOCK_TRAILER_SIZE,
    BlockHandle,
    Footer,
    encode_block_contents,
    encode_block_facts,
)

__all__ = ["BlockCutter", "EncodedBlock", "MergedBlock", "TableBuilder", "TableWriter"]


@dataclass(frozen=True)
class EncodedBlock:
    """A finished data block plus the metadata the writer needs.

    ``stored`` is payload + 5-byte trailer, exactly as written to disk.
    ``filter`` is the block's bloom filter piece
    (:func:`repro.lsm.bloom.block_filter` of its user keys), and
    ``plain`` says every user key occurs once in it and none is a
    tombstone; the writer stores both, with the keys and the count, in
    the block's index entry.
    How a compaction made the block, for its accounting (the sink treats
    all alike): ``passthrough`` marks an input block spliced from its
    index facts, never decompressed (no S3–S6); ``reused`` an input
    block decompressed and decoded, then spliced because the merge would
    only reproduce it (no S5–S6).
    """

    stored: bytes
    first_key: bytes
    last_key: bytes
    num_entries: int
    filter: bytes = b""
    plain: bool = False
    passthrough: bool = False
    reused: bool = False


@dataclass(frozen=True)
class MergedBlock:
    """A data block as built (uncompressed), with its metadata."""

    raw: bytes
    first_key: bytes
    last_key: bytes
    num_entries: int
    filter: bytes
    plain: bool = False

    def encoded(self, stored: bytes) -> EncodedBlock:
        """This block with ``stored``, its S5 + S6 output."""
        return EncodedBlock(
            stored, self.first_key, self.last_key, self.num_entries,
            self.filter, self.plain,
        )


class BlockCutter:
    """Sorted entries in, :class:`MergedBlock` s out to ``emit``.

    A block is cut once its size estimate reaches ``block_bytes``, and
    by :meth:`cut`, which builds the block's filter piece at
    ``bloom_bits_per_key``.  The plain bit is kept as entries arrive.
    Entries must arrive in strictly increasing internal-key order.
    """

    def __init__(
        self,
        block_bytes: int,
        restart_interval: int,
        emit: Callable[[MergedBlock], None],
        bloom_bits_per_key: int = 10,
    ) -> None:
        self._block_bytes = block_bytes
        self._bloom_bits_per_key = bloom_bits_per_key
        self._builder = BlockBuilder(restart_interval, compare=internal_compare)
        self._emit = emit
        self._first_key = b""
        self._users: list[bytes] = []  # the open block's, filtered when it is cut
        self._plain = True

    def add(self, ikey: bytes, value: bytes) -> None:
        users = self._users
        user = ikey[:-8]
        if not users:
            self._first_key = ikey
        elif users[-1] == user:  # in key order, a repeat is adjacent
            self._plain = False
        if ikey[-8] == KIND_DELETE:
            self._plain = False
        self._builder.add(ikey, value)
        users.append(user)
        if self._builder.current_size_estimate() >= self._block_bytes:
            self.cut()

    def cut(self) -> None:
        """Close the open block, if it holds an entry."""
        if not self._users:
            return
        builder = self._builder
        block = MergedBlock(
            builder.finish(), self._first_key, builder.last_key,
            builder.num_entries, block_filter(self._users, self._bloom_bits_per_key),
            self._plain,
        )
        builder.reset()
        self._users = []
        self._plain = True
        self._emit(block)


class TableWriter:
    """One SSTable file: data blocks as stored, then an empty filter
    block, the index (each block's handle, facts and filter piece) and
    the footer.

    ``size`` is the bytes written so far; ``smallest``/``largest`` the
    first block's first key and the last block's last key.
    """

    def __init__(self, file: WritableFile, options: Options) -> None:
        self.file = file
        self.size = 0
        self.num_entries = 0
        self.smallest: Optional[bytes] = None
        self.largest: Optional[bytes] = None
        self._checksummer = get_checksummer(options.checksum)
        self._index = BlockBuilder(1, compare=internal_compare)

    def append(self, block: EncodedBlock) -> None:
        """Append one data block; blocks must arrive in key order."""
        facts = encode_block_facts(
            block.first_key, block.last_key, block.num_entries, block.plain
        )
        self._index.add(
            block.last_key, self._write(block.stored).encode() + facts + block.filter
        )
        if self.smallest is None:
            self.smallest = block.first_key
        self.largest = block.last_key
        self.num_entries += block.num_entries

    def _write(self, stored: bytes) -> BlockHandle:
        handle = BlockHandle(self.size, len(stored) - BLOCK_TRAILER_SIZE)
        self.file.append(stored)
        self.size += len(stored)
        return handle

    def finish(self) -> Footer:
        """Write the (empty) filter block, the index and the footer."""
        null = get_codec("null")
        footer = Footer(
            self._write(encode_block_contents(b"", null, self._checksummer)),
            self._write(encode_block_contents(self._index.finish(), null, self._checksummer)),
            self.num_entries,
        )
        encoded = footer.encode()
        self.file.append(encoded)
        self.size += len(encoded)
        return footer


class TableBuilder:
    """Streams sorted entries into one SSTable (the memtable flush).

    A push-style front over :class:`BlockCutter`, S5 + S6 and
    :class:`TableWriter`.  ``smallest``/``largest`` are the first and
    the last key added so far.
    """

    def __init__(self, file: WritableFile, options: Optional[Options] = None) -> None:
        self.options = options or Options()
        self._codec = get_codec(self.options.compression)
        self._checksummer = get_checksummer(self.options.checksum)
        self._writer = TableWriter(file, self.options)
        self._cutter = BlockCutter(
            self.options.block_bytes, self.options.block_restart_interval, self._write,
            self.options.bloom_bits_per_key,
        )
        self._finished = False
        self.smallest: Optional[bytes] = None
        self.largest: Optional[bytes] = None

    @property
    def file_size(self) -> int:
        return self._writer.size

    def add(self, ikey: bytes, value: bytes) -> None:
        """Append one entry; internal keys must be strictly increasing."""
        if self._finished:
            raise RuntimeError("add() after finish()")
        if self.largest is not None and internal_compare(ikey, self.largest) <= 0:
            raise ValueError(f"keys out of order: {ikey!r} after {self.largest!r}")
        if self.smallest is None:
            self.smallest = ikey
        self.largest = ikey
        self._cutter.add(ikey, value)

    def _write(self, block: MergedBlock) -> None:
        stored = encode_block_contents(block.raw, self._codec, self._checksummer)
        self._writer.append(block.encoded(stored))

    def finish(self) -> Footer:
        """Cut the last data block, write filter/index/footer, return footer."""
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._finished = True
        self._cutter.cut()
        return self._writer.finish()
