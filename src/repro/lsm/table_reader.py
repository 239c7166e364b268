"""SSTable reader: point lookups and ordered iteration.

``Table.get`` is the read path the paper's background compactions keep
short: index bisect → the block's bloom filter piece → the data block,
from the block cache or read (S1), checksum-verified (S2), decompressed
(S3) and decoded → a bisect for the entry.  Both bisects compare
:func:`repro.lsm.ikey.internal_order` tuples, so they run in C: a
cached GET re-parses nothing.  ``iter_from`` / ``iter_reverse_from``
drive scans.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional, Sequence

from ..codec.checksum import get_checksummer
from ..devices.vfs import ReadableFile
from .blockfmt import Block
from .bloom import piece_hash, probe
from .cache import LRUCache
from .ikey import internal_order
from .options import Options
from .table_format import (
    FOOTER_SIZE,
    TAG_TO_CODEC,
    BlockFacts,
    BlockHandle,
    Footer,
    TableCorruption,
    decode_block_contents,
    decode_block_facts,
    read_block,
)

__all__ = ["DecodedBlock", "Table", "WouldBlock", "decode_block"]

#: A data block as the table hands it out, and as the block cache holds
#: it: the entries in key order, and aligned with them each key's
#: :func:`~repro.lsm.ikey.internal_order`, the list ``bisect`` searches.
DecodedBlock = tuple[list[tuple[bytes, bytes]], list[tuple[bytes, int]]]


def decode_block(raw: bytes) -> DecodedBlock:
    """Decode a data block's entries and their sort keys, once
    (:func:`~repro.lsm.ikey.internal_order`, inlined)."""
    entries = Block(raw).entries()
    trailer = int.from_bytes
    return entries, [(k[:-8], -trailer(k[-8:], "little")) for k, _ in entries]


class WouldBlock(Exception):
    """A non-waiting read (``wait=False``) would have had to wait.

    Raised instead of waiting for a lock, opening a file or waiting for
    the device; the caller repeats the read with ``wait=True`` on a thread
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
    ) -> None:
        self.options = options or Options()
        self._file = file
        self._cache = cache
        self._table_id = table_id if table_id is not None else id(self)
        self._checksummer = get_checksummer(self.options.checksum)

        size = file.size()
        if size < FOOTER_SIZE:
            raise TableCorruption(f"file too small for a footer: {size} bytes")
        footer = Footer.decode(file.pread(size - FOOTER_SIZE, FOOTER_SIZE))
        self.num_entries = footer.num_entries
        # The index in file order: each data block's location, facts and
        # filter piece, and its last key's sort key for the bisect.
        index = Block(self._load_block(footer.index_handle)).entries()
        self._handles: list[BlockHandle] = []
        self._filters: list[bytes] = []
        self._facts: list[BlockFacts] = []
        for key, value in index:
            handle, end = BlockHandle.decode(value)
            facts, end = decode_block_facts(value, end, key)
            self._facts.append(facts)
            self._handles.append(handle)
            self._filters.append(value[end:])
        self._index_order = [internal_order(k) for k, _ in index]
        self._block_by_offset: Optional[dict[int, int]] = None

    @property
    def file(self) -> ReadableFile:
        """The underlying file (compaction reads blocks through it)."""
        return self._file

    # -- block access ------------------------------------------------
    def _load_block(self, handle: BlockHandle, wait: bool = True) -> bytes:
        """One block's payload from the device, verified and
        decompressed, past the cache.  ``wait=False`` takes only what
        the OS holds without waiting for the device, and raises
        :class:`WouldBlock` otherwise."""
        stored = read_block(self._file, handle, wait)
        if stored is None:
            raise WouldBlock("block is not in the page cache")
        return decode_block_contents(
            stored, self._checksummer, verify=self.options.paranoid_checks
        )

    def _block_at(self, handle: BlockHandle, wait: bool = True) -> DecodedBlock:
        cache = self._cache
        if cache is not None:
            key = (self._table_id, handle.offset)
            block = cache.get(key, count_miss=False)
            if block is not None:
                return block
        block = decode_block(self._load_block(handle, wait))
        if cache is not None:
            # A miss counts once the block is read: a non-waiting read
            # that raised is repeated with wait=True, and that one counts.
            cache.count_miss()
            cache.put(key, block)
            if self._cache is None:
                # evict() ran during the read, perhaps after its own
                # invalidate of this key: drop what was just inserted.
                cache.invalidate(key)
        return block

    def evict(self) -> None:
        """Drop this table's blocks from the block cache and cache no
        more of them.  Called when the version drops the table; a reader
        that still holds it (a cursor mid-scan) reads on, uncached."""
        cache, self._cache = self._cache, None
        if cache is not None:
            for handle in self._handles:
                cache.invalidate((self._table_id, handle.offset))

    def num_blocks(self) -> int:
        return len(self._handles)

    def block_handles(self) -> list[BlockHandle]:
        """Data-block locations in key order (compaction input)."""
        return list(self._handles)

    def _positions(self, handles: Sequence[BlockHandle]) -> list[int]:
        if self._block_by_offset is None:
            self._block_by_offset = {h.offset: b for b, h in enumerate(self._handles)}
        return [self._block_by_offset[h.offset] for h in handles]

    def block_filters(self, handles: Sequence[BlockHandle]) -> list[bytes]:
        """The filter piece of each block of ``handles`` (compaction
        input, S1): ``b""`` where the table was written without
        filters."""
        return [self._filters[b] for b in self._positions(handles)]

    def block_facts(self, handles: Sequence[BlockHandle]) -> list[BlockFacts]:
        """The index facts of each block of ``handles`` (compaction
        input, S1)."""
        return [self._facts[b] for b in self._positions(handles)]

    def block_entries(self, handle: BlockHandle) -> list[tuple[bytes, bytes]]:
        """One data block's entries, read, verified and decoded past
        the block cache (``dbtool verify``)."""
        return Block(self._load_block(handle)).entries()

    def filter_layout(self) -> str:
        """``per-block`` (a piece in the index entry of every block) or
        ``none``."""
        return "per-block" if self._filters and all(self._filters) else "none"

    def block_codecs(self) -> list[str]:
        """Each data block's codec, read off its trailer's tag, in key
        order; an unknown tag reads as ``tag-N``."""
        tags = [self._file.pread(h.offset + h.size, 1)[0] for h in self._handles]
        return [TAG_TO_CODEC.get(tag, f"tag-{tag}") for tag in tags]

    def key_range(self) -> Optional[tuple[bytes, bytes]]:
        """(smallest, largest) internal key, from the index facts; None
        if there is no data block."""
        if not self._facts:
            return None
        return (self._facts[0].first_key, self._facts[-1].last_key)

    # -- lookups -----------------------------------------------------
    def get(
        self,
        ikey: bytes,
        wait: bool = True,
        order: Optional[tuple[bytes, int]] = None,
    ) -> Optional[tuple[bytes, bytes]]:
        """First entry with internal key >= ``ikey``, or None.

        The caller (DB read path) checks whether the returned entry's
        user key actually matches, and may pass ``order``, the probe's
        :func:`~repro.lsm.ikey.internal_order`, computed once for every
        table it asks.  With ``wait=False`` a block is taken from the
        block cache or from what the OS holds; one that would have to
        wait for the device raises :class:`WouldBlock`.

        Block ``idx``, the first whose last key is at or past ``ikey``,
        holds the entry that answers, so its filter piece decides; an
        empty piece matches every key.
        """
        if order is None:
            order = internal_order(ikey)
        idx = bisect_left(self._index_order, order)
        if idx == len(self._filters) or not probe(self._filters[idx], piece_hash(order[0])):
            return None
        entries, orders = self._block_at(self._handles[idx], wait)
        return entries[bisect_left(orders, order)]

    # -- iteration ---------------------------------------------------
    def iter_from(self, ikey: Optional[bytes] = None) -> Iterator[tuple[bytes, bytes]]:
        """Entries with internal key >= ``ikey`` (all of them for None),
        in order."""
        handles = self._handles
        idx = 0
        if ikey is not None:
            order = internal_order(ikey)
            idx = bisect_left(self._index_order, order)
            if idx == len(handles):
                return
            entries, orders = self._block_at(handles[idx])
            yield from entries[bisect_left(orders, order) :]
            idx += 1
        for handle in handles[idx:]:
            yield from self._block_at(handle)[0]

    __iter__ = iter_from

    def iter_reverse_from(self, ikey: Optional[bytes] = None) -> Iterator[tuple[bytes, bytes]]:
        """Entries with internal key <= ``ikey`` (all of them for None),
        descending."""
        handles = self._handles
        idx = len(handles)
        if ikey is not None:
            order = internal_order(ikey)
            idx = bisect_left(self._index_order, order)
            if idx < len(handles):
                entries, orders = self._block_at(handles[idx])
                yield from reversed(entries[: bisect_right(orders, order)])
        for handle in reversed(handles[:idx]):
            yield from reversed(self._block_at(handle)[0])

    def close(self) -> None:
        self._file.close()

