"""WAL retention index and idempotent replicated apply.

These are the two local building blocks the log-shipping path leans
on: the primary keeps retired WALs (byte-capped) so a reconnecting
follower can bridge without a snapshot, and the follower applies
shipped records exactly once no matter how the stream is replayed.
"""

import pytest

from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options
from repro.lsm.wal import WalRetention, WriteBatch

from tests.helpers import small_options


# ------------------------------------------------------- WalRetention
class _CountingStorage(MemStorage):
    """MemStorage that records delete() calls."""

    def __init__(self):
        super().__init__()
        self.deleted = []

    def delete(self, name):
        self.deleted.append(name)
        super().delete(name)


def _put_file(storage, name, size):
    with storage.create(name) as f:
        f.append(b"x" * size)


def test_retention_prunes_oldest_first():
    storage = _CountingStorage()
    for name in ("000001.log", "000002.log", "000003.log"):
        _put_file(storage, name, 100)
    ret = WalRetention(storage, retain_bytes=250)
    ret.add("000001.log", 1, 10, 100)
    ret.add("000002.log", 11, 20, 100)
    assert ret.total_bytes == 200
    ret.add("000003.log", 21, 30, 100)  # 300 > cap → oldest goes
    assert ret.file_names() == ["000002.log", "000003.log"]
    assert storage.deleted == ["000001.log"]
    assert ret.floor_seq == 11
    assert ret.ceiling_seq == 30


def test_retention_keeps_single_oversized_file():
    storage = _CountingStorage()
    _put_file(storage, "000001.log", 1000)
    ret = WalRetention(storage, retain_bytes=10)
    ret.add("000001.log", 1, 50, 1000)
    # An oversized WAL still bridges: never prune down to nothing.
    assert ret.file_names() == ["000001.log"]
    assert ret.covers(1)


def test_retention_covers_is_floor_based():
    storage = _CountingStorage()
    _put_file(storage, "000002.log", 100)
    ret = WalRetention(storage, retain_bytes=1000)
    assert not ret.covers(1)  # empty index bridges nothing
    ret.add("000002.log", 11, 20, 100)
    assert not ret.covers(10)  # before the floor → snapshot needed
    assert ret.covers(11)
    assert ret.covers(25)  # above the ceiling is fine: live WAL takes over


def test_db_retention_populated_on_flush():
    db = DB(
        MemStorage(),
        small_options(wal_retain_bytes=8 * 1024 * 1024),
    )
    try:
        assert db.wal_retention is not None
        assert db.wal_retention.file_names() == []
        for i in range(500):
            db.put(f"key{i:04d}".encode(), b"v" * 64)
        # small_options' 16 KiB memtable guarantees flushes happened.
        assert db.obs.metrics.counter("db.flushes").value > 0
        names = db.wal_retention.file_names()
        assert names, "retired WALs should be retained, not deleted"
        assert db.wal_retention.covers(db.wal_retention.floor_seq)
        # Replay from the floor reaches the present.
        replayed = 0
        for base, count, _ in db.wal_retention.records_from(
            db.wal_retention.floor_seq
        ):
            replayed += count
        assert replayed > 0
    finally:
        db.close()


def test_db_without_retention_deletes_retired_wals():
    db = DB(MemStorage(), small_options())
    try:
        assert db.wal_retention is None
        for i in range(500):
            db.put(f"key{i:04d}".encode(), b"v" * 64)
        assert db.obs.metrics.counter("db.flushes").value > 0
        logs = [n for n in db.storage.list() if n.endswith(".log")]
        assert len(logs) == 1, f"only the live WAL should remain: {logs}"
    finally:
        db.close()


# --------------------------------------------------- apply_replicated
def _shipping_pair():
    """A primary that captures WAL records and an empty follower."""
    primary = DB(MemStorage(), Options())
    records = []
    primary.add_wal_listener(
        lambda base, last, record: records.append(record)
    )
    follower = DB(MemStorage(), Options())
    return primary, follower, records


def test_apply_replicated_mirrors_primary():
    primary, follower, records = _shipping_pair()
    try:
        primary.put(b"a", b"1")
        primary.put(b"b", b"2")
        primary.delete(b"a")
        primary.write(WriteBatch().put(b"c", b"3").put(b"d", b"4"))
        for record in records:
            assert follower.apply_replicated(record) is True
        assert follower.last_sequence == primary.last_sequence
        assert follower.get(b"a") is None
        assert follower.get(b"b") == b"2"
        assert follower.get(b"c") == b"3"
        assert follower.get(b"d") == b"4"
    finally:
        primary.close()
        follower.close()


def test_apply_replicated_skips_duplicates():
    primary, follower, records = _shipping_pair()
    try:
        primary.put(b"k1", b"v1")
        primary.put(b"k2", b"v2")
        for record in records:
            assert follower.apply_replicated(record) is True
        # Redelivery after reconnect: same records again, no effect.
        for record in records:
            assert follower.apply_replicated(record) is False
        assert follower.last_sequence == primary.last_sequence
        assert follower.obs.metrics.counter("db.writes").value == 2
    finally:
        primary.close()
        follower.close()


def test_apply_replicated_rejects_gaps():
    primary, follower, records = _shipping_pair()
    try:
        primary.put(b"k1", b"v1")
        primary.put(b"k2", b"v2")
        primary.put(b"k3", b"v3")
        assert follower.apply_replicated(records[0])
        with pytest.raises(ValueError, match="replication gap"):
            follower.apply_replicated(records[2])
        # The follower did not diverge: k2 onward never applied.
        assert follower.last_sequence == 1
        assert follower.get(b"k2") is None
    finally:
        primary.close()
        follower.close()
