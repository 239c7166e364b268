"""Integration tests for the DB facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProcedureSpec
from repro.db import DB
from repro.devices import MemStorage, OSStorage
from repro.lsm import Options, WriteBatch


def small_options(**kw):
    """Tiny thresholds so compactions happen within test-sized loads."""
    defaults = dict(
        memtable_bytes=32 * 1024,
        sstable_bytes=16 * 1024,
        block_bytes=1024,
        level1_bytes=64 * 1024,
        level_multiplier=4,
        l0_compaction_trigger=2,
        compression="lz77",
    )
    defaults.update(kw)
    return Options(**defaults)


def fill(db, n, value_size=64, start=0):
    for i in range(start, start + n):
        db.put(b"key-%08d" % i, (b"v%d-" % i) * (value_size // 8))


def fill_shuffled(db, n, value_size=64, seed=11):
    """Insert n keys in a shuffled order so L0 files overlap and
    compactions do real merging (sequential fills trivially move)."""
    import random

    order = list(range(n))
    random.Random(seed).shuffle(order)
    for i in order:
        db.put(b"key-%08d" % i, (b"v%d-" % i) * (value_size // 8))


class TestBasicOps:
    def test_put_get(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"hello", b"world")
            assert db.get(b"hello") == b"world"
            assert db.get(b"missing") is None

    def test_overwrite(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"k", b"v1")
            db.put(b"k", b"v2")
            assert db.get(b"k") == b"v2"

    def test_delete(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"k", b"v")
            db.delete(b"k")
            assert db.get(b"k") is None

    def test_delete_missing_key_is_fine(self):
        with DB(MemStorage(), small_options()) as db:
            db.delete(b"never-existed")
            assert db.get(b"never-existed") is None

    def test_write_batch_atomic(self):
        with DB(MemStorage(), small_options()) as db:
            batch = WriteBatch().put(b"a", b"1").put(b"b", b"2").delete(b"a")
            db.write(batch)
            assert db.get(b"a") is None
            assert db.get(b"b") == b"2"

    def test_empty_batch_noop(self):
        with DB(MemStorage(), small_options()) as db:
            db.write(WriteBatch())
            assert db.obs.metrics.counter("db.writes").value == 0

    def test_get_survives_flush(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"k", b"v")
            db.flush()
            assert db.num_files(0) >= 0  # flushed (may have compacted)
            assert db.get(b"k") == b"v"

    def test_closed_db_rejects_ops(self):
        db = DB(MemStorage(), small_options())
        db.close()
        with pytest.raises(RuntimeError):
            db.put(b"k", b"v")
        with pytest.raises(RuntimeError):
            db.get(b"k")

    def test_double_close(self):
        db = DB(MemStorage(), small_options())
        db.close()
        db.close()


class TestCompactionIntegration:
    @pytest.mark.parametrize(
        "spec",
        [
            ProcedureSpec.scp(subtask_bytes=8 * 1024),
            ProcedureSpec.pcp(subtask_bytes=8 * 1024),
            ProcedureSpec.cppcp(k=2, subtask_bytes=8 * 1024),
        ],
        ids=["scp", "pcp", "cppcp"],
    )
    def test_heavy_insert_then_read_everything(self, spec):
        with DB(MemStorage(), small_options(), compaction_spec=spec) as db:
            fill(db, 3000)
            assert db.obs.metrics.counter("db.compactions").value > 0
            for i in range(0, 3000, 97):
                expected = (b"v%d-" % i) * 8
                assert db.get(b"key-%08d" % i) == expected

    def test_data_flows_to_deeper_levels(self):
        with DB(MemStorage(), small_options()) as db:
            fill_shuffled(db, 5000)
            deep_files = sum(db.num_files(lv) for lv in range(1, 7))
            assert deep_files > 0
            assert db.obs.metrics.counter("compaction.input_bytes").value > 0
            assert db.obs.metrics.histogram("compaction.seconds").total > 0

    def test_sequential_fill_uses_trivial_moves(self):
        """Non-overlapping L0 files just move down, as in LevelDB."""
        with DB(MemStorage(), small_options()) as db:
            fill(db, 4000)
            assert db.obs.metrics.counter("compaction.trivial_moves").value > 0

    def test_shuffled_fill_does_real_merges(self):
        with DB(MemStorage(), small_options()) as db:
            fill_shuffled(db, 4000)
            counters = db.metrics_snapshot()["counters"]
            assert counters["db.compactions"] > counters["compaction.trivial_moves"]

    def test_levels_respect_invariants(self):
        with DB(MemStorage(), small_options()) as db:
            fill(db, 4000)
            db.version.check_invariants()

    def test_overwrites_are_merged_away(self):
        opts = small_options()
        with DB(MemStorage(), opts) as db:
            for round_ in range(6):
                for i in range(300):
                    db.put(b"hot-%04d" % i, b"round-%d" % round_)
            db.flush()
            db.compact_all()
            for i in range(300):
                assert db.get(b"hot-%04d" % i) == b"round-5"
            # After full compaction the dataset shrinks to ~one version.
            live = sum(1 for _ in db.items())
            assert live == 300

    def test_deletes_reclaimed_at_bottom(self):
        with DB(MemStorage(), small_options()) as db:
            fill(db, 800)
            for i in range(0, 800, 2):
                db.delete(b"key-%08d" % i)
            db.flush()
            db.compact_all()
            live = sum(1 for _ in db.items())
            assert live == 400

    def test_write_stall_accounting(self, monkeypatch):
        """A backed-up L0 pauses the writer (paper: write pauses)."""
        with DB(MemStorage(), small_options()) as db:
            fill(db, 200)
            stall_once = iter([True])

            def fake_stall(version):
                return next(stall_once, False)

            monkeypatch.setattr(db.policy, "write_stall", fake_stall)
            db.put(b"k", b"v")
            assert db.obs.metrics.counter("db.write_stalls").value == 1
            # Sync mode resolved the stall by compacting until quiet.
            assert not db.policy.needs_compaction(db.version)


class TestScan:
    def test_scan_ordered(self):
        with DB(MemStorage(), small_options()) as db:
            fill(db, 500)
            keys = [k for k, _ in db.items()]
            assert keys == sorted(keys)
            assert len(keys) == 500

    def test_scan_range(self):
        with DB(MemStorage(), small_options()) as db:
            fill(db, 300)
            got = list(db.scan(b"key-00000100", b"key-00000110"))
            assert [k for k, _ in got] == [b"key-%08d" % i for i in range(100, 110)]

    def test_scan_sees_memtable_and_disk(self):
        with DB(MemStorage(), small_options()) as db:
            fill(db, 200)
            db.flush()
            db.put(b"key-zzz", b"fresh")
            keys = [k for k, _ in db.items()]
            assert b"key-zzz" in keys

    def test_scan_skips_deleted(self):
        with DB(MemStorage(), small_options()) as db:
            fill(db, 100)
            db.delete(b"key-%08d" % 50)
            keys = [k for k, _ in db.items()]
            assert b"key-%08d" % 50 not in keys
            assert len(keys) == 99


class TestSnapshots:
    def test_snapshot_isolated_from_later_writes(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"k", b"v1")
            with db.snapshot() as snap:
                db.put(b"k", b"v2")
                assert db.get(b"k") == b"v2"
                assert db.get(b"k", snapshot=snap) == b"v1"

    def test_snapshot_survives_flush_and_compaction(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"pinned", b"old")
            snap = db.snapshot()
            fill(db, 2000)
            db.put(b"pinned", b"new")
            db.flush()
            db.compact_all()
            assert db.get(b"pinned", snapshot=snap) == b"old"
            assert db.get(b"pinned") == b"new"
            snap.release()

    def test_snapshot_of_deleted_key(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"k", b"v")
            snap = db.snapshot()
            db.delete(b"k")
            assert db.get(b"k") is None
            assert db.get(b"k", snapshot=snap) == b"v"
            snap.release()

    def test_release_unpins(self):
        with DB(MemStorage(), small_options()) as db:
            snap = db.snapshot()
            snap.release()
            snap.release()  # idempotent
            assert db._smallest_snapshot() == db._sequence


class TestRecovery:
    def test_wal_replay_after_crash(self):
        storage = MemStorage()
        db = DB(storage, small_options())
        db.put(b"durable", b"yes")
        db.put(b"also", b"this")
        db.close()
        with DB(storage, small_options()) as db2:
            assert db2.get(b"durable") == b"yes"
            assert db2.get(b"also") == b"this"

    def test_manifest_replay_restores_levels(self):
        storage = MemStorage()
        db = DB(storage, small_options())
        fill(db, 3000)
        # Flush so the WAL is empty at close; otherwise recovery adds
        # an L0 file for the recovered tail (by design: durability).
        db.flush()
        shape = [db.num_files(lv) for lv in range(7)]
        db.close()
        with DB(storage, small_options()) as db2:
            assert [db2.num_files(lv) for lv in range(7)] == shape
            for i in range(0, 3000, 301):
                assert db2.get(b"key-%08d" % i) == (b"v%d-" % i) * 8

    def test_unclosed_db_loses_nothing_synced(self):
        # Simulate a crash: no close(); WAL was still appended eagerly.
        storage = MemStorage()
        db = DB(storage, small_options())
        db.put(b"k1", b"v1")
        db.flush()
        db.put(b"k2", b"v2")  # only in WAL + memtable
        # Abandon db without close. Reopen replays manifest + WAL...
        # but the boot manifest was written at open; the live WAL is
        # found via its log number from that manifest.
        db2 = DB(storage, small_options())
        assert db2.get(b"k1") == b"v1"
        assert db2.get(b"k2") == b"v2"
        db2.close()

    def test_recovery_on_osstorage(self, tmp_path):
        storage = OSStorage(str(tmp_path))
        db = DB(storage, small_options())
        fill(db, 1500)
        db.close()
        with DB(OSStorage(str(tmp_path)), small_options()) as db2:
            assert db2.get(b"key-%08d" % 700) == (b"v700-") * 8


class TestBackgroundMode:
    def test_background_compaction_keeps_up(self):
        opts = small_options()
        with DB(MemStorage(), opts, background=True,
                compaction_spec=ProcedureSpec.pcp(subtask_bytes=8 * 1024)) as db:
            fill(db, 3000)
            db.wait_for_compactions()
            assert db.obs.metrics.counter("db.compactions").value > 0
            for i in range(0, 3000, 97):
                assert db.get(b"key-%08d" % i) == (b"v%d-" % i) * 8

    def test_compact_once_rejected_in_background_mode(self):
        with DB(MemStorage(), small_options(), background=True) as db:
            with pytest.raises(RuntimeError):
                db.compact_once()

    def test_reads_during_background_compaction(self):
        import threading

        opts = small_options()
        errors = []
        with DB(MemStorage(), opts, background=True) as db:
            stop = threading.Event()

            def reader():
                i = 0
                while not stop.is_set():
                    db.get(b"key-%08d" % (i % 1000))
                    i += 1

            t = threading.Thread(target=reader, name="db-reader")
            t.start()
            try:
                fill(db, 3000)
                db.wait_for_compactions()
            finally:
                stop.set()
                t.join()
            assert not errors


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(min_value=0, max_value=60),
            st.binary(min_size=1, max_size=30),
        ),
        max_size=250,
    )
)
def test_db_matches_dict_model(ops):
    """With aggressive flush/compaction thresholds, the DB still behaves
    like a dict."""
    model = {}
    with DB(MemStorage(), small_options(memtable_bytes=2048)) as db:
        for op, keyid, value in ops:
            key = b"key-%03d" % keyid
            if op == "put":
                db.put(key, value)
                model[key] = value
            else:
                db.delete(key)
                model.pop(key, None)
        for keyid in range(61):
            key = b"key-%03d" % keyid
            assert db.get(key) == model.get(key)
        assert dict(db.items()) == model


class TestAuxiliaryAPIs:
    def test_multi_get(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"a", b"1")
            db.put(b"c", b"3")
            assert db.multi_get([b"a", b"b", b"c"]) == [b"1", None, b"3"]

    def test_multi_get_with_snapshot(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"a", b"old")
            snap = db.snapshot()
            db.put(b"a", b"new")
            assert db.multi_get([b"a"], snapshot=snap) == [b"old"]
            snap.release()

    def test_approximate_size_full_range(self):
        with DB(MemStorage(), small_options()) as db:
            fill(db, 2000)
            db.flush()
            approx = db.approximate_size()
            assert approx == db.total_bytes()

    def test_approximate_size_subrange(self):
        with DB(MemStorage(), small_options()) as db:
            fill(db, 2000)
            db.flush()
            half = db.approximate_size(None, b"key-00001000")
            full = db.approximate_size()
            assert 0 < half < full
            # Disjoint range far above all keys.
            assert db.approximate_size(b"z", None) == 0

    def test_approximate_size_empty_db(self):
        with DB(MemStorage(), small_options()) as db:
            assert db.approximate_size() == 0


def test_engine_runs_without_numpy():
    """Write, flush and compact in a fresh interpreter: numpy must not
    get imported (it would add 16 MB to a 27-30 MB server process)."""
    import os
    import subprocess
    import sys

    script = """
import sys
from repro.core import ProcedureSpec
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options

options = Options(
    memtable_bytes=8 * 1024, sstable_bytes=4 * 1024, block_bytes=1024,
    level1_bytes=16 * 1024, l0_compaction_trigger=2, compression="lz77",
)
with DB(MemStorage(), options, compaction_spec=ProcedureSpec.pcp(subtask_bytes=4096)) as db:
    for i in range(600):
        db.put(b"key-%06d" % ((i * 7919) % 600), b"value-%06d-" % i * 8)
    db.flush()
    db.compact_all()
    assert db.obs.metrics.counter("db.flushes").value > 0
    counters = db.metrics_snapshot()["counters"]
    assert counters["db.compactions"] > counters["compaction.trivial_moves"]
    assert db.get(b"key-000001") is not None
assert "numpy" not in sys.modules, "numpy was imported by the engine"
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], check=True, env=env, timeout=120)
