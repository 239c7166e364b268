"""SSTable reader: point lookups and ordered iteration.

``Table.get`` is the read path the paper's background compactions keep
short: bloom probe → index binary search → one data-block read (S1) →
checksum verify (S2) → decompress (S3) → in-block binary search.
``Table.__iter__``/``iter_from`` drive both scans and compaction input.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..codec.checksum import get_checksummer
from ..devices.vfs import ReadableFile
from .blockfmt import Block
from .bloom import BloomFilter
from .cache import LRUCache
from .ikey import internal_compare
from .options import Options
from .table_format import (
    FOOTER_SIZE,
    BlockHandle,
    Footer,
    TableCorruption,
    decode_block_contents,
    read_block,
)

__all__ = ["Table", "WouldBlock"]


class WouldBlock(Exception):
    """A non-waiting read (``wait=False``) would have had to wait.

    Raised instead of waiting for a lock, opening a file or reading the
    device; the caller repeats the read with ``wait=True`` on a thread
    that may block.  Spans the exception unwinds through are not
    recorded (see :class:`repro.obs.Tracer`): the repeat is the read.
    """

    leaves_no_span = True


class Table:
    """An open, immutable SSTable."""

    def __init__(
        self,
        file: ReadableFile,
        options: Optional[Options] = None,
        cache: Optional[LRUCache] = None,
        table_id: object = None,
        key_range: Optional[tuple[bytes, bytes]] = None,
    ) -> None:
        """``key_range`` is the table's (smallest, largest) internal key
        where the opener already knows it (the DB's ``FileMetaData``);
        without it :meth:`key_range` reads the two edge blocks."""
        self.options = options or Options()
        self._file = file
        self._cache = cache
        self._key_range = key_range
        self._table_id = table_id if table_id is not None else id(self)
        self._checksummer = get_checksummer(self.options.checksum)

        size = file.size()
        if size < FOOTER_SIZE:
            raise TableCorruption(f"file too small for a footer: {size} bytes")
        footer = Footer.decode(file.pread(size - FOOTER_SIZE, FOOTER_SIZE))
        self.num_entries = footer.num_entries
        self._index = Block(
            self._load_block(footer.index_handle, cacheable=False),
            compare=internal_compare,
        )
        filter_blob = self._load_block(footer.filter_handle, cacheable=False)
        self._bloom = BloomFilter(filter_blob) if filter_blob else None
        # Index entries in file order: (separator_key, handle).
        self._index_entries = [
            (k, BlockHandle.decode(v)[0]) for k, v in self._index
        ]

    @property
    def file(self) -> ReadableFile:
        """The underlying file (compaction reads blocks through it)."""
        return self._file

    # -- block access ------------------------------------------------
    def _load_block(
        self, handle: BlockHandle, cacheable: bool = True, wait: bool = True
    ) -> bytes:
        if cacheable and self._cache is not None:
            key = (self._table_id, handle.offset)
            # A non-waiting miss is not a lookup: the caller repeats the
            # read with wait=True and that one counts.
            cached = self._cache.get(key, count_miss=wait)
            if cached is not None:
                return cached
        if not wait:
            raise WouldBlock("block is not in the cache")
        stored = read_block(self._file, handle)
        raw = decode_block_contents(
            stored, self._checksummer, verify=self.options.paranoid_checks
        )
        if cacheable and self._cache is not None:
            self._cache.put((self._table_id, handle.offset), raw)
        return raw

    def _block_at(self, handle: BlockHandle, wait: bool = True) -> Block:
        return Block(
            self._load_block(handle, wait=wait), compare=internal_compare
        )

    def num_blocks(self) -> int:
        return len(self._index_entries)

    def block_handles(self) -> list[BlockHandle]:
        """Data-block locations in key order (compaction input)."""
        return [h for _, h in self._index_entries]

    def block_separators(self) -> list[bytes]:
        """Index separator keys, aligned with :meth:`block_handles`."""
        return [k for k, _ in self._index_entries]

    def key_range(self) -> Optional[tuple[bytes, bytes]]:
        """(smallest, largest) internal key; None if there is no data block.

        The index cannot answer this: it does not hold the first key,
        and in a table written before each block was indexed by its own
        last key, the final index key is a successor that over-covers.
        Not handed the range, read the edge blocks — once per ``Table``,
        and past the block cache, which belongs to readers.
        """
        if self._key_range is None and self._index_entries:
            first, last = (
                Block(self._load_block(handle, cacheable=False))
                for handle in (self._index_entries[0][1], self._index_entries[-1][1])
            )
            *_, (largest, _value) = last
            self._key_range = (first.first_key(), largest)
        return self._key_range

    # -- lookups -----------------------------------------------------
    def _find_block_index(self, ikey: bytes) -> Optional[int]:
        """First block whose separator >= ikey (may contain ikey)."""
        entries = self._index_entries
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if internal_compare(entries[mid][0], ikey) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo < len(entries) else None

    def get(
        self, ikey: bytes, wait: bool = True
    ) -> Optional[tuple[bytes, bytes]]:
        """First entry with internal key >= ``ikey``, or None.

        The caller (DB read path) checks whether the returned entry's
        user key actually matches.  With ``wait=False`` only the block
        cache is consulted: a block that would need a device read raises
        :class:`WouldBlock`.
        """
        if self._bloom is not None and not self._bloom.may_contain(ikey[:-8]):
            return None
        idx = self._find_block_index(ikey)
        if idx is None:
            return None
        block = self._block_at(self._index_entries[idx][1], wait)
        for key, value in block.seek(ikey):
            return key, value
        # The target sorts after everything in this block; try the next.
        if idx + 1 < len(self._index_entries):
            block = self._block_at(self._index_entries[idx + 1][1], wait)
            for key, value in block.seek(ikey):  # its first entry, lazily
                return key, value
        return None

    # -- iteration ---------------------------------------------------
    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        for _, handle in self._index_entries:
            yield from self._block_at(handle)

    def iter_from(self, ikey: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries with internal key >= ``ikey``, in order."""
        idx = self._find_block_index(ikey)
        if idx is None:
            return
        block = self._block_at(self._index_entries[idx][1])
        yield from block.seek(ikey)
        for _, handle in self._index_entries[idx + 1 :]:
            yield from self._block_at(handle)

    def iter_reverse(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in descending internal-key order."""
        for _, handle in reversed(self._index_entries):
            yield from self._block_at(handle).iter_reverse()

    def iter_reverse_from(self, ikey: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries with internal key <= ``ikey``, descending."""
        idx = self._find_block_index(ikey)
        if idx is None:
            # Everything sorts before ikey: full reverse stream.
            yield from self.iter_reverse()
            return
        block = self._block_at(self._index_entries[idx][1])
        yield from block.seek_reverse(ikey)
        for _, handle in reversed(self._index_entries[:idx]):
            yield from self._block_at(handle).iter_reverse()

    def close(self) -> None:
        self._file.close()

