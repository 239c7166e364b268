"""Failure injection across the stack.

The paper's S2/S6 checksum steps exist precisely to catch storage
corruption during compaction; these tests flip bits at every layer and
assert the engine detects (never silently propagates) the damage, and
that crash points around the manifest/WAL commit protocol lose nothing
acknowledged.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProcedureSpec
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import FOOTER_SIZE, LogCorruption, UnsupportedTableFormat

from tests.helpers import corrupt_file, small_options


class TestCompactionDetectsCorruption:
    @pytest.mark.parametrize(
        "spec",
        [
            ProcedureSpec.scp(subtask_bytes=2048),
            ProcedureSpec.pcp(subtask_bytes=2048),
            ProcedureSpec.cppcp(2, subtask_bytes=2048),
        ],
        ids=["scp", "pcp", "cppcp2"],
    )
    def test_compaction_quarantines_corrupt_input(self, spec):
        """S2 catches a flipped bit in a compaction input block; the
        damaged table is renamed aside and the DB keeps serving —
        wherever S2 ran."""
        storage = MemStorage()
        db = DB(
            storage,
            small_options(l0_compaction_trigger=100, l0_stop_writes_trigger=200),
            compaction_spec=spec,
        )
        # Shuffled keys: L0 files overlap, so compaction must merge
        # (sequential fills would trivially move without reading).
        order = list(range(900))
        random.Random(3).shuffle(order)
        for i in order:
            db.put(b"key-%05d" % i, b"v-%d" % i)
        db.flush()
        sst = next(n for n in storage.list() if n.endswith(".sst"))
        corrupt_file(storage, sst, 40)
        # Drop cached table/blocks so the corrupt bytes are re-read.
        db._tables.clear()
        db._cache.clear()
        # Self-healing: no exception; the corrupt table is quarantined.
        db.compact_range()
        assert sst + ".quarantined" in db.quarantined
        assert storage.exists(sst + ".quarantined")
        assert not storage.exists(sst)
        assert db.obs.metrics.counter("compaction.quarantined").value >= 1
        # The DB still serves reads and writes afterwards.
        db.put(b"after-quarantine", b"ok")
        assert db.get(b"after-quarantine") == b"ok"
        survivors = sum(1 for _ in db.items())
        assert 0 < survivors <= 901
        db.close()

    def test_compaction_refuses_a_table_of_another_layout(self):
        """A table whose footer names another index layout (byte 31 is
        0, as in a table written before the block facts) is not damage:
        the compaction stops with the error, and the table stays live
        under its own name — never quarantined, its keys never lost."""
        storage = MemStorage()
        db = DB(
            storage,
            small_options(l0_compaction_trigger=100, l0_stop_writes_trigger=200),
        )
        order = list(range(900))
        random.Random(3).shuffle(order)
        for i in order:
            db.put(b"key-%05d" % i, b"v-%d" % i)
        db.flush()
        live = sorted(meta.name for _level, meta in db.version.all_files())
        assert len(live) > 1
        corrupt_file(storage, live[0], -FOOTER_SIZE + 31, mask=0x01)
        db._tables.clear()
        db._cache.clear()
        with pytest.raises(UnsupportedTableFormat, match="unsupported index layout"):
            db.compact_range()
        assert db.quarantined == []
        assert db.obs.metrics.counter("compaction.quarantined").value == 0
        assert storage.exists(live[0])
        assert not storage.exists(live[0] + ".quarantined")
        assert sorted(meta.name for _level, meta in db.version.all_files()) == live
        db.close()

    @pytest.mark.parametrize(
        "spec",
        [
            ProcedureSpec.scp(subtask_bytes=2048),
            ProcedureSpec.pcp(subtask_bytes=2048),
            ProcedureSpec.cppcp(2, subtask_bytes=2048),
            ProcedureSpec.cppcp(2, subtask_bytes=2048, backend="process"),
        ],
        ids=["scp", "pcp", "cppcp2", "cppcp2-process"],
    )
    def test_compaction_quarantines_corrupt_passthrough_block(self, spec):
        """Sequential fills make key-disjoint runs, whose blocks a
        tiered merge hands from S1 to S7 as stored.  S2 still verifies
        them: a flipped bit is caught, not copied into the output."""

        def fill(storage):
            # Twelve flushes of 125 keys; each fourth merges L0 into one
            # lz77 run at L1 (L0 holds zlib), so L1 ends with three
            # runs, one short of a merge.  The reopen leaves the counters
            # to the merges of those runs.
            options = small_options(compaction_policy="tiered:runs=4")
            db = DB(storage, options, compaction_spec=spec)
            for i in range(1500):
                db.put(b"key-%05d" % i, b"v-%d" % i)
                if i % 125 == 124:
                    db.flush()
            db.close()
            return DB(storage, options, compaction_spec=spec)

        twin = fill(MemStorage())
        twin.compact_range()
        counters = twin.obs.metrics.snapshot()["counters"]
        assert counters["compaction.passthrough_blocks"] > 0
        assert (
            counters["compaction.passthrough_bytes"]
            == counters["compaction.input_bytes"]
        )  # every input block of the clean twin passed through
        twin.close()

        storage = MemStorage()
        db = fill(storage)
        sst = sorted(n for n in storage.list() if n.endswith(".sst"))[1]
        corrupt_file(storage, sst, 40)
        db._tables.clear()
        db._cache.clear()
        db.compact_range()
        assert sst + ".quarantined" in db.quarantined
        assert not storage.exists(sst)
        # The damaged bytes went nowhere: every surviving table verifies.
        from repro.lsm.table_reader import Table

        for name in storage.list():
            if name.endswith(".sst"):
                assert sum(1 for _ in Table(storage.open(name), db.options)) > 0
        survivors = sum(1 for _ in db.items())
        assert 0 < survivors < 1500
        db.put(b"after-quarantine", b"ok")
        assert db.get(b"after-quarantine") == b"ok"
        db.close()

    @settings(max_examples=20, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=10**6), bit=st.integers(0, 7))
    def test_random_sst_bitflip_never_silent(self, offset, bit):
        """Any single bit flip in a data region is either detected or
        lands in unreferenced padding — reads never return wrong data
        silently for keys whose blocks were hit."""
        storage = MemStorage()
        db = DB(storage, small_options())
        expected = {}
        for i in range(400):
            key, value = b"key-%04d" % i, b"val-%d" % i
            db.put(key, value)
            expected[key] = value
        db.flush()
        db.close()

        tables = [n for n in storage.list() if n.endswith(".sst")]
        victim = tables[offset % len(tables)]
        corrupt_file(storage, victim, offset, 1 << bit)

        db = DB(storage, small_options())
        detected: list[Exception] = []
        try:
            for key, value in expected.items():
                try:
                    got = db.get(key)
                except Exception as exc:  # detected: acceptable
                    detected.append(exc)
                    continue
                assert got is None or got == value
        finally:
            try:
                db.close()
            except Exception:
                pass


class TestWALFaults:
    def test_torn_tail_loses_only_unacked_suffix(self):
        storage = MemStorage()
        db = DB(storage, small_options())
        for i in range(50):
            db.put(b"k-%03d" % i, b"v")
        wal_name = db._wal_name(db._wal_number)
        del db  # crash without close
        data = storage.open(wal_name).read_all()
        storage.delete(wal_name)
        with storage.create(wal_name) as f:
            f.append(data[: len(data) // 2])  # tear mid-log
        db2 = DB(storage, small_options())
        # A prefix of writes survives; the store opens cleanly.
        survived = sum(1 for _ in db2.items())
        assert 0 < survived <= 50
        keys = [k for k, _ in db2.items()]
        assert keys == [b"k-%03d" % i for i in range(survived)]
        db2.close()

    def test_interior_wal_corruption_raises(self):
        storage = MemStorage()
        db = DB(storage, small_options())
        for i in range(50):
            db.put(b"k-%03d" % i, b"v" * 20)
        wal_name = db._wal_name(db._wal_number)
        del db
        corrupt_file(storage, wal_name, 12)  # inside the first record
        with pytest.raises(LogCorruption):
            DB(storage, small_options())


class TestCrashPoints:
    def test_crash_after_flush_before_wal_delete(self):
        """A flush writes the table + manifest edit, then deletes the
        old WAL; if the delete is lost, replaying both is harmless
        (the old WAL is simply absent next time or re-applied as
        no-longer-referenced)."""
        storage = MemStorage()
        db = DB(storage, small_options())
        db.put(b"a", b"1")
        db.flush()
        db.put(b"b", b"2")
        del db  # crash
        db2 = DB(storage, small_options())
        assert db2.get(b"a") == b"1"
        assert db2.get(b"b") == b"2"
        db2.close()

    def test_repeated_crash_reopen_cycles(self):
        storage = MemStorage()
        expected = {}
        rng = random.Random(7)
        for cycle in range(6):
            db = DB(storage, small_options())
            for key, value in expected.items():
                assert db.get(key) == value, f"cycle {cycle}: lost {key}"
            for _ in range(150):
                k = b"key-%03d" % rng.randrange(300)
                v = b"cycle-%d-%d" % (cycle, rng.randrange(10**6))
                db.put(k, v)
                expected[k] = v
            if cycle % 2:
                db.flush()
            del db  # crash every cycle
        db = DB(storage, small_options())
        assert dict(db.items()) == expected
        db.close()
