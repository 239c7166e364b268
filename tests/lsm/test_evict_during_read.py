"""A block read while its table is retired does not stay cached.

``Table._block_at`` takes the block cache before the read and inserts
after it; ``Table.evict`` (the version dropping the table) may run in
between, from another thread.  Here the file itself calls ``evict``
right after serving the block's bytes, which makes the interleaving
deterministic: whichever side runs last must leave the key out.
"""

from typing import Optional

import pytest

from repro.devices import MemStorage
from repro.devices.vfs import ReadableFile
from repro.lsm.cache import LRUCache
from repro.lsm.ikey import KIND_VALUE, MAX_SEQUENCE, encode_internal_key, lookup_key
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table


class _EvictAfterRead(ReadableFile):
    """Serves ``inner``; once armed, retires ``table`` after each read.

    ``try_pread`` answers like a page-cache hit, so the non-waiting
    read reaches the same window."""

    def __init__(self, inner: ReadableFile) -> None:
        self._inner = inner
        self.table: Optional[Table] = None

    def _after_read(self, data: bytes) -> bytes:
        if self.table is not None:
            self.table.evict()
        return data

    def pread(self, offset: int, length: int) -> bytes:
        return self._after_read(self._inner.pread(offset, length))

    def try_pread(self, offset: int, length: int) -> Optional[bytes]:
        return self._after_read(self._inner.pread(offset, length))

    def size(self) -> int:
        return self._inner.size()

    def close(self) -> None:
        self._inner.close()


def _table_evicting_mid_read(cache: LRUCache) -> Table:
    storage = MemStorage()
    options = Options(block_bytes=256)
    with storage.create("t.sst") as f:
        builder = TableBuilder(f, options)
        for i in range(200):
            builder.add(encode_internal_key(b"key-%04d" % i, 1, KIND_VALUE), b"v" * 30)
        builder.finish()
    file = _EvictAfterRead(storage.open("t.sst"))
    table = Table(file, options, cache=cache, table_id=7)
    file.table = table  # armed only now: the open reads footer and index
    return table


@pytest.mark.parametrize("wait", [True, False])
def test_a_block_read_while_the_table_is_evicted_leaves_the_cache(wait):
    cache = LRUCache(64)
    table = _table_evicting_mid_read(cache)
    hit = table.get(lookup_key(b"key-0100", MAX_SEQUENCE), wait=wait)
    assert hit is not None and hit[1] == b"v" * 30
    assert table._cache is None
    assert len(cache) == 0, list(cache._map)
    # Read on, uncached, as a cursor over a retired table does.
    assert table.get(lookup_key(b"key-0150", MAX_SEQUENCE), wait=wait) is not None
    assert len(cache) == 0
