"""SSTable writer.

Entries (internal key → value) arrive in internal-key order; the
builder cuts a data block every ``options.block_bytes``, writes it with
compression + checksum trailer (pipeline steps S5–S7 of a flush or
compaction), and records an index entry whose key is a *short
separator* — the smallest key >= the block's last key and < the next
block's first key, which keeps the index compact.
"""

from __future__ import annotations

from typing import Optional

from ..codec.checksum import get_checksummer
from ..codec.compress import get_codec
from ..devices.vfs import WritableFile
from .blockfmt import BlockBuilder
from .bloom import BloomFilterBuilder, bloom_hashes
from .ikey import internal_compare
from .options import Options
from .table_format import BlockHandle, Footer, encode_block_contents

__all__ = ["TableBuilder", "shortest_separator", "shortest_successor"]


def shortest_separator(a_ikey: bytes, b_ikey: bytes) -> bytes:
    """A short internal key k with a <= k < b (user-key part shortened).

    Works on the user-key prefix; the 8-byte trailer of ``a`` is
    preserved so internal ordering semantics hold.  Falls back to ``a``
    when no shorter separator exists.
    """
    a_user, a_trailer = a_ikey[:-8], a_ikey[-8:]
    b_user = b_ikey[:-8]
    n = min(len(a_user), len(b_user))
    i = 0
    while i < n and a_user[i] == b_user[i]:
        i += 1
    if i >= n:
        return a_ikey  # one is a prefix of the other: cannot shorten
    byte = a_user[i]
    if byte < 0xFF and byte + 1 < b_user[i]:
        cand = a_user[:i] + bytes([byte + 1])
        sep = cand + a_trailer
        if internal_compare(a_ikey, sep) <= 0:
            return sep
    return a_ikey


def shortest_successor(ikey: bytes) -> bytes:
    """A short internal key >= ``ikey`` (used for the final index entry)."""
    user, trailer = ikey[:-8], ikey[-8:]
    for i, byte in enumerate(user):
        if byte != 0xFF:
            return user[: i + 1][:-1] + bytes([byte + 1]) + trailer
    return ikey


class TableBuilder:
    """Streams sorted entries into an SSTable file."""

    def __init__(self, file: WritableFile, options: Optional[Options] = None) -> None:
        self.options = options or Options()
        self._file = file
        self._codec = get_codec(self.options.compression)
        self._checksummer = get_checksummer(self.options.checksum)
        self._data_block = BlockBuilder(
            self.options.block_restart_interval, compare=internal_compare
        )
        self._index_block = BlockBuilder(1, compare=internal_compare)
        self._bloom = BloomFilterBuilder(self.options.bloom_bits_per_key)
        self._block_users: list[bytes] = []  # hashed when the block is cut
        self._offset = 0
        self._num_entries = 0
        self._pending_handle: Optional[BlockHandle] = None
        self._pending_last_key = b""
        self._last_key = b""
        self._finished = False
        self.smallest: Optional[bytes] = None
        self.largest: Optional[bytes] = None

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def file_size(self) -> int:
        return self._offset

    def add(self, ikey: bytes, value: bytes) -> None:
        """Append one entry; internal keys must be strictly increasing."""
        if self._finished:
            raise RuntimeError("add() after finish()")
        if self._num_entries and internal_compare(ikey, self._last_key) <= 0:
            raise ValueError(f"keys out of order: {ikey!r} after {self._last_key!r}")
        self._maybe_flush_pending_index(next_key=ikey)
        if self.smallest is None:
            self.smallest = ikey
        self.largest = ikey
        self._data_block.add(ikey, value)
        self._block_users.append(ikey[:-8])
        self._last_key = ikey
        self._num_entries += 1
        if self._data_block.current_size_estimate() >= self.options.block_bytes:
            self._flush_data_block()

    def _maybe_flush_pending_index(self, next_key: Optional[bytes]) -> None:
        if self._pending_handle is None:
            return
        if next_key is not None:
            index_key = shortest_separator(self._pending_last_key, next_key)
        else:
            index_key = shortest_successor(self._pending_last_key)
        self._index_block.add(index_key, self._pending_handle.encode())
        self._pending_handle = None

    def _flush_data_block(self) -> None:
        if self._data_block.empty:
            return
        raw = self._data_block.finish()
        self._pending_handle = self._write_block(raw)
        self._pending_last_key = self._data_block.last_key
        self._data_block.reset()
        self._bloom.add_hashes(bloom_hashes(self._block_users))
        self._block_users = []

    def _write_block(self, raw: bytes) -> BlockHandle:
        stored = encode_block_contents(raw, self._codec, self._checksummer)
        handle = BlockHandle(self._offset, len(stored) - 5)
        self._file.append(stored)
        self._offset += len(stored)
        return handle

    def finish(self) -> Footer:
        """Flush remaining data, write filter/index/footer, return footer."""
        if self._finished:
            raise RuntimeError("finish() called twice")
        self._flush_data_block()
        self._maybe_flush_pending_index(next_key=None)
        # Filter block (whole-table bloom), stored uncompressed so the
        # reader need not decompress to probe it.
        if len(self._bloom) and self.options.bloom_bits_per_key > 0:
            filter_blob = self._bloom.finish()
        else:
            filter_blob = b""
        null = get_codec("null")
        stored = encode_block_contents(filter_blob, null, self._checksummer)
        filter_handle = BlockHandle(self._offset, len(stored) - 5)
        self._file.append(stored)
        self._offset += len(stored)
        # Index block.
        index_raw = self._index_block.finish()
        index_handle = self._write_block(index_raw)
        footer = Footer(filter_handle, index_handle, self._num_entries)
        self._file.append(footer.encode())
        self._offset += len(footer.encode())
        self._finished = True
        return footer

    def abandon(self) -> None:
        """Mark the builder unusable without writing a footer."""
        self._finished = True
