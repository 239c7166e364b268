"""``DB.get(wait=False)`` on real files: it never *waits* for the device.

A block that misses the block cache but that the kernel already holds
is read without waiting (``ReadableFile.try_pread``, ``preadv`` with
``RWF_NOWAIT`` on ``OSStorage``) and answered; one the device would
have to read raises ``WouldBlock`` with nothing counted.  The in-memory,
timed and faulty storages keep saying "would wait", so their reads and
counts are those of the waiting path alone.
"""

import errno
import os

import pytest

from repro.db import DB, WouldBlock
from repro.devices import FaultyStorage, OSStorage, TimedStorage
from repro.devices.presets import make_device
from repro.devices.vfs import _OSReadable
from repro.lsm import Options
from repro.lsm.ikey import KIND_VALUE, MAX_SEQUENCE, encode_internal_key, lookup_key
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_format import TableCorruption
from repro.lsm.table_reader import Table

from tests.helpers import corrupt_file, small_options

needs_nowait = pytest.mark.skipif(
    not _OSReadable._nowait, reason="platform has no preadv(RWF_NOWAIT)"
)

KEYS = [b"key%04d" % i for i in range(300)]


def _value(key: bytes) -> bytes:
    return key * 20  # 140 B: several entries per 1 KiB block


def _counts(db: DB, device: str = "os") -> tuple[int, int, int]:
    metrics = db.obs.metrics
    return (
        metrics.counter("cache.misses").value,
        metrics.counter(f"io.{device}.read.ops").value,
        metrics.counter("db.gets").value,
    )


def _flushed_db(storage, root) -> DB:
    """One L0 table, open, its first block cached, the rest not; every
    byte of the file in the page cache."""
    db = DB(storage, small_options(memtable_bytes=1 << 20, block_cache_entries=64))
    for key in KEYS:
        db.put(key, _value(key))
    db.flush()
    assert db.version.num_files(0) == 1
    assert db.get(KEYS[0]) == _value(KEYS[0])  # opens the table
    for name in os.listdir(root):  # warm the page cache
        with open(os.path.join(root, name), "rb") as f:
            f.read()
    return db


@pytest.fixture
def osdb(tmp_path):
    db = _flushed_db(OSStorage(str(tmp_path)), tmp_path)
    yield db
    db.close()


@needs_nowait
def test_an_uncached_block_in_the_page_cache_is_answered(osdb):
    key = KEYS[100]
    before = _counts(osdb)
    assert osdb.get(key, wait=False) == _value(key)
    misses, reads, gets = (a - b for a, b in zip(_counts(osdb), before))
    assert (misses, reads, gets) == (1, 1, 1)
    # Now in the block cache: a hit, no read.
    before = _counts(osdb)
    assert osdb.get(key, wait=False) == _value(key)
    assert _counts(osdb)[:2] == before[:2]


def _eagain(fd, buffers, offset, flags):
    raise BlockingIOError(errno.EAGAIN, "would block")


def _short(fd, buffers, offset, flags):
    return len(buffers[0]) - 1  # only part of the range is cached


def _unsupported(fd, buffers, offset, flags):
    raise OSError(errno.EOPNOTSUPP, "not supported")


@needs_nowait
@pytest.mark.parametrize("preadv", [_eagain, _short, _unsupported])
def test_a_read_that_would_wait_raises_and_counts_nothing(osdb, monkeypatch, preadv):
    # Restored after the test: an unsupported answer turns the flag off.
    monkeypatch.setattr(_OSReadable, "_nowait", _OSReadable._nowait)
    calls = []

    def fake(*args):
        calls.append(args[2])
        return preadv(*args)

    monkeypatch.setattr(os, "preadv", fake)
    key = KEYS[100]
    before = _counts(osdb)
    with pytest.raises(WouldBlock):
        osdb.get(key, wait=False)
    assert _counts(osdb) == before
    assert len(calls) == 1
    # The waiting repeat reads and counts the one answer.
    assert osdb.get(key) == _value(key)
    assert tuple(a - b for a, b in zip(_counts(osdb), before)) == (1, 1, 1)
    with pytest.raises(WouldBlock):
        osdb.get(KEYS[200], wait=False)
    if preadv is _unsupported:
        assert len(calls) == 1, "the platform's refusal is remembered"
        assert not _OSReadable._nowait
    else:
        assert len(calls) == 2


@needs_nowait
@pytest.mark.parametrize("wait", [True, False])
def test_a_flipped_byte_raises_table_corruption_on_both_paths(tmp_path, wait):
    storage = OSStorage(str(tmp_path))
    options = Options(block_bytes=256)
    with storage.create("t.sst") as f:
        builder = TableBuilder(f, options)
        for i in range(200):
            builder.add(encode_internal_key(b"k-%04d" % i, 1, KIND_VALUE), b"v" * 30)
        builder.finish()
    corrupt_file(storage, "t.sst", 10, 0x01)  # inside the first data block
    table = Table(storage.open("t.sst"), options)
    with pytest.raises(TableCorruption):
        table.get(lookup_key(b"k-0000", MAX_SEQUENCE), wait=wait)
    table.close()


def _ledger(storage):
    """What the wrapper books for a read: the fault plan's op counts, or
    the device time charged."""
    if isinstance(storage, FaultyStorage):
        return dict(storage._op_counts)
    return storage.io_seconds


@pytest.mark.parametrize("wrap", ["faulty", "timed"])
def test_wrapped_os_storage_keeps_the_waiting_path(tmp_path, wrap):
    inner = OSStorage(str(tmp_path))
    if wrap == "faulty":
        storage = FaultyStorage(inner)
    else:
        storage = TimedStorage(inner, make_device("ssd"))
    db = _flushed_db(storage, tmp_path)
    try:
        before = _counts(db, wrap), _ledger(storage)
        with pytest.raises(WouldBlock):
            db.get(KEYS[100], wait=False)
        assert (_counts(db, wrap), _ledger(storage)) == before
        assert db.get(KEYS[100]) == _value(KEYS[100])
    finally:
        db.close()
