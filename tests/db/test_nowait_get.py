"""``DB.get(wait=False)``: answer from memory or raise ``WouldBlock``.

The non-waiting read is what the server runs on its event loop, so the
three things it must never do are pinned here at the engine: wait for
the DB mutex, open a table, read the device.
"""

import threading

import pytest

from repro.db import DB, WouldBlock
from repro.devices import MemStorage

from tests.helpers import small_options


def _read_ops(db: DB) -> int:
    return db.obs.metrics.counter("io.mem.read.ops").value


@pytest.fixture
def db():
    db = DB(MemStorage(), small_options(block_cache_entries=64))
    yield db
    db.close()


def _flushed(db: DB, n: int = 200) -> dict[bytes, bytes]:
    data = {b"key%04d" % i: b"value%04d" % i * 4 for i in range(n)}
    for key, value in data.items():
        db.put(key, value)
    db.flush()
    return data


def test_memtable_hit_miss_and_tombstone_need_no_table(db):
    db.put(b"a", b"1")
    db.put(b"b", b"2")
    db.delete(b"b")
    assert db.get(b"a", wait=False) == b"1"
    assert db.get(b"b", wait=False) is None
    assert db.get(b"never", wait=False) is None  # no table could hold it


def test_unopened_table_raises_without_opening_it(db):
    data = _flushed(db)
    key = next(iter(data))
    before = _read_ops(db)
    with pytest.raises(WouldBlock):
        db.get(key, wait=False)
    assert not db._tables
    assert _read_ops(db) == before


def test_uncached_block_raises_then_cached_block_answers(db):
    data = _flushed(db)
    key, value = next(iter(data.items()))
    assert db.get(key) == value  # opens the table, caches the block
    db._cache.clear()
    before = _read_ops(db)
    with pytest.raises(WouldBlock):
        db.get(key, wait=False)
    assert _read_ops(db) == before
    assert db.get(key) == value
    before = _read_ops(db)
    assert db.get(key, wait=False) == value
    assert _read_ops(db) == before


def test_never_reads_the_device_on_a_warm_store(db):
    data = _flushed(db)
    db.compact_range()
    for key, value in data.items():  # warm: tables open, blocks cached
        assert db.get(key) == value
    before = _read_ops(db)
    for key, value in data.items():
        assert db.get(key, wait=False) == value
    assert db.get(b"key9999", wait=False) is None
    assert _read_ops(db) == before


def test_held_mutex_raises_instead_of_waiting(db):
    db.put(b"a", b"1")
    outcome = []

    def probe():
        try:
            outcome.append(db.get(b"a", wait=False))
        except WouldBlock as exc:
            outcome.append(exc)

    with db._lock:
        thread = threading.Thread(target=probe, name="nowait-probe")
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive(), "wait=False waited for db.mutex"
    assert isinstance(outcome[0], WouldBlock)
    assert db.get(b"a", wait=False) == b"1"


def test_a_would_block_probe_counts_nothing(db):
    data = _flushed(db)
    key, value = next(iter(data.items()))
    gets = db.stats.gets
    with pytest.raises(WouldBlock):
        db.get(key, wait=False)  # table not open
    assert db.stats.gets == gets
    assert db.get(key) == value
    db._cache.clear()
    lookups = db._cache.stats.lookups
    with pytest.raises(WouldBlock):
        db.get(key, wait=False)  # block not cached
    assert db.stats.gets == gets + 1
    assert db._cache.stats.lookups == lookups
    assert db.get(key) == value
    assert db.get(key, wait=False) == value
    assert db.stats.gets == gets + 3
    assert db._cache.stats.lookups == lookups + 2


def test_wait_false_sees_the_same_snapshot_view(db):
    db.put(b"k", b"old")
    snap = db.snapshot()
    db.put(b"k", b"new")
    assert db.get(b"k", snapshot=snap, wait=False) == b"old"
    assert db.get(b"k", wait=False) == b"new"
    snap.release()


def test_stress_nowait_readers_beside_writers_count_every_answer_once():
    """More threads than cores, a short switch interval: non-waiting
    and waiting readers race a writer that keeps flushing (so tables
    close and open and the mutex is often held).  Every answer is the
    key's value, and ``stats.gets`` equals the number of answers — a
    lost update on the counter, or a probe counted twice, breaks it."""
    import sys

    db = DB(MemStorage(), small_options(block_cache_entries=64), background=True)
    keys = [b"key%04d" % i for i in range(300)]
    for key in keys:
        db.put(key, key * 3)
    answers = [0] * 6
    wrong = []
    stop = threading.Event()

    def reader(slot: int, wait: bool) -> None:
        i = slot
        while not stop.is_set():
            key = keys[i % len(keys)]
            i += 7
            try:
                value = db.get(key, wait=wait)
            except WouldBlock:
                continue
            answers[slot] += 1
            if value != key * 3:
                wrong.append((key, value))

    def writer() -> None:
        for round_ in range(30):
            for key in keys[round_ % 3 :: 3]:
                db.put(key, key * 3)
            db.flush()
        stop.set()

    gets_before = db.stats.gets
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [
        threading.Thread(
            target=reader, args=(slot, slot % 2 == 0), name=f"reader-{slot}"
        )
        for slot in range(6)
    ] + [threading.Thread(target=writer, name="writer")]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    try:
        assert not wrong
        # How often a non-waiting read gets through is the scheduler's
        # business; that the waiting ones did is enough to have raced.
        assert all(answers[0::2]), answers
        assert db.stats.gets - gets_before == sum(answers)
    finally:
        db.close()
