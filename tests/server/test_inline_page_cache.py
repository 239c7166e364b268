"""A GET whose block is only in the page cache is answered by the reader.

On ``OSStorage`` a block that misses the block cache but that the
kernel holds is read without waiting, so the connection's reader
answers the GET on the event loop: no pool submit, ``server.inline``
counts it, and the bytes are those the pool path returns.
"""

import pytest

from repro.db import DB
from repro.devices import OSStorage
from repro.devices.vfs import _OSReadable
from repro.server import ServerThread, SyncClient

from tests.helpers import small_options


@pytest.mark.skipif(
    not _OSReadable._nowait, reason="platform has no preadv(RWF_NOWAIT)"
)
def test_a_flushed_key_in_an_uncached_block_is_answered_inline(tmp_path):
    db = DB(
        OSStorage(str(tmp_path)),
        small_options(memtable_bytes=1 << 20, block_cache_entries=64),
    )
    data = {b"key%04d" % i: b"%04d" % i * 50 for i in range(300)}
    with ServerThread(db) as handle, SyncClient(handle.host, handle.port) as client:
        for key, value in data.items():
            client.put(key, value)
        client.flush()
        inline = handle.metrics.counter("server.inline")
        pool = handle.server._pool
        calls = []
        submit = pool.submit

        def recording_submit(fn, *args, **kwargs):
            if fn == handle.server._execute:
                calls.append(args[0].opcode_name)
            return submit(fn, *args, **kwargs)

        pool.submit = recording_submit
        assert client.get(b"key0000") == data[b"key0000"]  # opens the table
        assert calls == ["GET"]
        before = inline.value
        cache_before = len(db._cache)
        assert client.get(b"key0100") == data[b"key0100"]
        assert calls == ["GET"], "the uncached block went to the pool"
        assert inline.value == before + 1
        assert len(db._cache) == cache_before + 1  # it was a block-cache miss
