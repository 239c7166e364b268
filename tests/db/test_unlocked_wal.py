"""A write appends and syncs its WAL record outside ``db.mutex``.

While a writer is inside ``LogWriter.sync`` the mutex is free: a
non-waiting read is answered (with the value from before the write),
and a snapshot taken then excludes the write.  The writer owns the WAL
meanwhile, so a second writer waits for it, and the two records reach
the log — and replay — in sequence order.
"""

import threading

import pytest

from repro.db import DB
from repro.devices import MemStorage
from repro.lsm.wal import LogReader, LogWriter, WriteBatch

from tests.helpers import small_options


class _HeldSync:
    """Holds the first ``LogWriter.sync`` until released."""

    def __init__(self, monkeypatch) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        self._held = False
        original = LogWriter.sync

        def sync(wal):
            if not self._held:
                self._held = True
                self.entered.set()
                assert self.release.wait(10), "sync never released"
            original(wal)

        monkeypatch.setattr(LogWriter, "sync", sync)


def _writer(db: DB, key: bytes, value: bytes) -> threading.Thread:
    thread = threading.Thread(target=db.put, args=(key, value), name=f"put-{value!r}")
    thread.start()
    return thread


@pytest.fixture
def storage():
    return MemStorage()


@pytest.fixture
def db(storage):
    db = DB(storage, small_options(wal_sync_interval=1))
    yield db
    db.close()


def test_a_read_during_the_wal_sync_sees_the_old_value(db, monkeypatch):
    db.put(b"k", b"old")
    held = _HeldSync(monkeypatch)
    writer = _writer(db, b"k", b"new")
    try:
        assert held.entered.wait(10)
        assert db.get(b"k", wait=False) == b"old"  # no WouldBlock
        snap = db.snapshot()
    finally:
        held.release.set()
        writer.join(10)
    assert not writer.is_alive()
    assert db.get(b"k", wait=False) == b"new"
    assert db.get(b"k", snapshot=snap) == b"old"
    snap.release()


def test_a_second_writer_waits_and_both_replay_in_order(storage, db, monkeypatch):
    records = db.obs.metrics.counter("wal.records")
    held = _HeldSync(monkeypatch)
    first = _writer(db, b"k", b"first")
    assert held.entered.wait(10)
    base = records.value
    second = _writer(db, b"k", b"second")
    try:
        second.join(0.2)
        assert second.is_alive(), "the second writer did not wait"
        assert records.value == base  # its record is not in the log yet
    finally:
        held.release.set()
        first.join(10)
        second.join(10)
    assert not first.is_alive() and not second.is_alive()
    assert db.get(b"k") == b"second"
    wal_name = db._wal_name(db._wal_number)
    batches = [
        WriteBatch.decode(record) for record in LogReader(storage.open(wal_name))
    ]
    assert [(seq, list(batch)[0][2]) for batch, seq in batches] == [
        (1, b"first"),
        (2, b"second"),
    ]
    db.close()
    reopened = DB(storage, small_options(wal_sync_interval=1))
    try:
        assert reopened.get(b"k") == b"second"
        assert reopened.last_sequence == 2
    finally:
        reopened.close()
