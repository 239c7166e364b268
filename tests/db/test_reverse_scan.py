"""Tests for descending iteration (reverse scans)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options
from repro.lsm.blockfmt import Block, BlockBuilder
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.memtable import MemTable
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table


def small_options(**kw):
    defaults = dict(
        memtable_bytes=16 * 1024,
        sstable_bytes=8 * 1024,
        block_bytes=1024,
        level1_bytes=32 * 1024,
        level_multiplier=4,
        compression="lz77",
    )
    defaults.update(kw)
    return Options(**defaults)


def _ik(user, seq=1):
    return encode_internal_key(user, seq, KIND_VALUE)


class TestBlockReverse:
    def test_iter_reverse(self):
        builder = BlockBuilder(4)
        entries = [(b"k%02d" % i, b"v%d" % i) for i in range(20)]
        for k, v in entries:
            builder.add(k, v)
        block = Block(builder.finish())
        assert list(block.iter_reverse()) == entries[::-1]

    def test_seek_reverse(self):
        builder = BlockBuilder(4)
        for i in range(0, 20, 2):
            builder.add(b"k%02d" % i, b"")
        block = Block(builder.finish())
        got = [k for k, _ in block.seek_reverse(b"k09")]
        assert got == [b"k08", b"k06", b"k04", b"k02", b"k00"]

    def test_seek_reverse_inclusive(self):
        builder = BlockBuilder(4)
        builder.add(b"a", b"")
        builder.add(b"b", b"")
        block = Block(builder.finish())
        assert [k for k, _ in block.seek_reverse(b"b")] == [b"b", b"a"]


class TestTableReverse:
    def _table(self, n=200):
        storage = MemStorage()
        options = Options(block_bytes=512, compression="null")
        with storage.create("t") as f:
            b = TableBuilder(f, options)
            for i in range(n):
                b.add(_ik(b"key-%04d" % i), b"v%d" % i)
            b.finish()
        return Table(storage.open("t"), options)

    def test_iter_reverse_full(self):
        table = self._table()
        forward = list(table)
        assert list(table.iter_reverse_from(None)) == forward[::-1]

    def test_iter_reverse_from(self):
        table = self._table()
        probe = _ik(b"key-0050", 0)
        got = [k[:-8] for k, _ in table.iter_reverse_from(probe)]
        assert got == [b"key-%04d" % i for i in range(50, -1, -1)]

    def test_iter_reverse_from_past_end(self):
        table = self._table(10)
        got = list(table.iter_reverse_from(_ik(b"zzz", 0)))
        assert len(got) == 10


class TestMemtableReverse:
    def test_reverse_matches_forward(self):
        mt = MemTable()
        for i in range(100):
            mt.put(i + 1, b"k%03d" % (i * 7 % 100), b"v")
        assert list(mt.iter_reverse_from(None)) == list(mt)[::-1]

    def test_reverse_from(self):
        mt = MemTable()
        for i in range(10):
            mt.put(i + 1, b"k%02d" % i, b"v")
        probe = encode_internal_key(b"k04", 0, 0)
        got = [k[:-8] for k, _ in mt.iter_reverse_from(probe)]
        assert got == [b"k04", b"k03", b"k02", b"k01", b"k00"]


class TestDBScanReverse:
    def test_full_reverse(self):
        with DB(MemStorage(), small_options()) as db:
            import random

            order = list(range(800))
            random.Random(1).shuffle(order)
            for i in order:
                db.put(b"key-%04d" % i, b"v%d" % i)
            forward = list(db.scan())
            backward = list(db.scan_reverse())
            assert backward == forward[::-1]

    def test_window_reverse(self):
        with DB(MemStorage(), small_options()) as db:
            for i in range(100):
                db.put(b"k%03d" % i, b"v")
            got = [k for k, _ in db.scan_reverse(b"k010", b"k015")]
            assert got == [b"k014", b"k013", b"k012", b"k011", b"k010"]

    def test_reverse_sees_newest_version(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"k", b"old")
            db.flush()
            db.put(b"k", b"new")
            assert list(db.scan_reverse()) == [(b"k", b"new")]

    def test_reverse_skips_tombstones(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"a", b"1")
            db.put(b"b", b"2")
            db.flush()
            db.delete(b"b")
            assert list(db.scan_reverse()) == [(b"a", b"1")]

    def test_reverse_with_snapshot(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"a", b"1")
            snap = db.snapshot()
            db.put(b"a", b"2")
            db.put(b"b", b"3")
            assert list(db.scan_reverse(snapshot=snap)) == [(b"a", b"1")]
            snap.release()

    def test_reverse_spans_all_levels(self):
        with DB(MemStorage(), small_options()) as db:
            import random

            order = list(range(2000))
            random.Random(8).shuffle(order)
            for i in order:
                db.put(b"key-%05d" % i, b"v%d" % i)
            # Data across memtable, L0, deeper levels.
            backward = [k for k, _ in db.scan_reverse()]
            assert backward == [b"key-%05d" % i for i in range(1999, -1, -1)]


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=50),
            st.binary(max_size=10),
        ),
        max_size=150,
    ),
    lo=st.integers(min_value=0, max_value=50),
    hi=st.integers(min_value=0, max_value=50),
)
def test_reverse_scan_property(ops, lo, hi):
    """scan_reverse(start, end) == reversed(scan(start, end)) always."""
    if lo > hi:
        lo, hi = hi, lo
    start, end = b"key-%03d" % lo, b"key-%03d" % hi
    with DB(MemStorage(), small_options(memtable_bytes=2048)) as db:
        for op, keyid, value in ops:
            key = b"key-%03d" % keyid
            if op == "put":
                db.put(key, value)
            else:
                db.delete(key)
        forward = list(db.scan(start, end))
        backward = list(db.scan_reverse(start, end))
        assert backward == forward[::-1]
