"""Coverage for DB's typed introspection accessors and DB.multi_get.

Clients batch point lookups over the wire, so multi_get's edge cases —
missing keys, snapshot reads, closed-DB errors — get direct tests.
"""

import pytest

from repro.db import DB
from repro.db.db import db_counts
from repro.devices import MemStorage
from repro.lsm import Options


SMALL = dict(
    memtable_bytes=4 * 1024,
    sstable_bytes=4 * 1024,
    level1_bytes=16 * 1024,
    level_multiplier=4,
)


@pytest.fixture()
def db():
    database = DB(MemStorage(), Options(**SMALL))
    yield database
    database.close()


class TestMultiGet:
    def test_order_preserving_with_missing_keys(self, db):
        db.put(b"a", b"1")
        db.put(b"c", b"3")
        result = db.multi_get([b"a", b"b", b"c", b"zz"])
        assert result == [b"1", None, b"3", None]

    def test_empty_key_list(self, db):
        assert db.multi_get([]) == []

    def test_sees_tombstones(self, db):
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.multi_get([b"k"]) == [None]

    def test_reads_through_flushed_tables(self, db):
        for i in range(300):
            db.put(b"key-%04d" % i, b"val-%d" % i)
        db.flush()
        assert db.obs.metrics.counter("db.flushes").value >= 1
        keys = [b"key-0000", b"key-0123", b"key-9999"]
        assert db.multi_get(keys) == [b"val-0", b"val-123", None]

    def test_snapshot_read_ignores_later_writes(self, db):
        db.put(b"k1", b"old")
        with db.snapshot() as snap:
            db.put(b"k1", b"new")
            db.put(b"k2", b"born-later")
            assert db.multi_get([b"k1", b"k2"], snapshot=snap) == [b"old", None]
        # Without the snapshot the new state is visible.
        assert db.multi_get([b"k1", b"k2"]) == [b"new", b"born-later"]

    def test_closed_db_raises(self):
        db = DB(MemStorage(), Options(**SMALL))
        db.put(b"k", b"v")
        db.close()
        with pytest.raises(RuntimeError, match="closed"):
            db.multi_get([b"k"])


class TestGetProperty:
    """The typed introspection accessors."""

    def test_num_files_per_level(self, db):
        assert db.num_files(0) == 0
        for i in range(200):
            db.put(b"key-%04d" % i, b"x" * 16)
        db.flush()
        assert db.num_files(0) >= 0
        total = sum(db.num_files(lv) for lv in range(db.options.num_levels))
        assert total >= 1

    def test_stats_and_memory_usage_track_writes(self, db):
        before = db.memtable.approximate_bytes
        db.put(b"key", b"value" * 10)
        after = db.memtable.approximate_bytes
        assert after > before
        assert db_counts(db.metrics_snapshot())["writes"] == 1

    def test_total_bytes_and_sstables_after_flush(self, db):
        for i in range(300):
            db.put(b"key-%04d" % i, b"v" * 32)
        db.flush()
        assert db.total_bytes() > 0
        assert "(empty)" not in db.describe()

    def test_compaction_log_lists_runs(self, db):
        for i in range(2000):
            db.put(b"key-%05d" % i, b"w" * 32)
        db.flush()
        db.compact_all()
        count = db.metrics_snapshot()["counters"].get
        if count("db.compactions", 0) - count("compaction.trivial_moves", 0) > 0:
            assert any(r["level"] in (0, 1) for r in db.compaction_log)
