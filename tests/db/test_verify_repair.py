"""Tests for verify_db / repair_db and the streaming cursor."""


from repro.codec import get_checksummer, get_codec
from repro.db import DB, repair_db, verify_db
from repro.db.db import db_counts
from repro.db.manifest import CURRENT_NAME
from repro.devices import MemStorage
from repro.lsm import sstable_name
from repro.lsm.blockfmt import Block, BlockBuilder
from repro.lsm.ikey import internal_compare
from repro.lsm.table_format import (
    FOOTER_SIZE,
    BlockHandle,
    Footer,
    decode_block_contents,
    decode_block_facts,
    encode_block_contents,
    encode_block_facts,
    read_block,
)

from tests.helpers import corrupt_file, small_options


def _populate(storage, n=1500, options=None):
    db = DB(storage, options or small_options())
    for i in range(n):
        db.put(b"key-%06d" % i, b"value-%d" % i)
    db.flush()
    db.close()


class TestVerify:
    def test_clean_db_verifies(self):
        storage = MemStorage()
        _populate(storage)
        report = verify_db(storage, small_options())
        assert report.ok, report.render()
        assert report.tables_checked > 0
        assert report.entries_checked >= 1500
        assert "OK" in report.render()

    def test_empty_dir_fails(self):
        report = verify_db(MemStorage(), small_options())
        assert not report.ok
        assert "CURRENT" in report.errors[0]

    def test_missing_table_detected(self):
        storage = MemStorage()
        _populate(storage)
        victim = next(n for n in storage.list() if n.endswith(".sst"))
        storage.delete(victim)
        report = verify_db(storage, small_options())
        assert not report.ok
        assert any("missing" in e for e in report.errors)

    def test_corrupt_block_detected(self):
        storage = MemStorage()
        _populate(storage)
        victim = next(n for n in storage.list() if n.endswith(".sst"))
        corrupt_file(storage, victim, 20)
        report = verify_db(storage, small_options())
        assert not report.ok

    def test_index_facts_that_lie_are_detected(self):
        """One index entry claims one entry more than its block holds;
        the index's CRC is recomputed, so every block still verifies."""
        storage = MemStorage()
        options = small_options()
        _populate(storage, options=options)
        victim = next(n for n in storage.list() if n.endswith(".sst"))
        checksummer = get_checksummer(options.checksum)
        with storage.open(victim) as f:
            data = f.read_all()
            footer = Footer.decode(data[-FOOTER_SIZE:])
            index = Block(decode_block_contents(read_block(f, footer.index_handle), checksummer))
        builder = BlockBuilder(1, compare=internal_compare)
        for i, (key, value) in enumerate(index):
            if i == 1:
                _handle, start = BlockHandle.decode(value)
                facts, end = decode_block_facts(value, start, key)
                lie = encode_block_facts(
                    facts.first_key, key, facts.num_entries + 1, facts.plain
                )
                value = value[:start] + lie + value[end:]
            builder.add(key, value)
        stored = encode_block_contents(builder.finish(), get_codec("null"), checksummer)
        offset = footer.index_handle.offset
        assert len(stored) == footer.index_handle.size + 5
        with storage.create(victim) as f:
            f.append(data[:offset] + stored + data[offset + len(stored):])
        report = verify_db(storage, options)
        assert not report.ok
        assert any(
            victim in e and "index facts" in e for e in report.errors
        ), report.render()

    def test_quarantined_and_tmp_files_are_warnings(self):
        storage = MemStorage()
        _populate(storage)
        with storage.create("000042.sst.quarantined") as f:
            f.append(b"damaged table set aside")
        # Deliberate orphan: verify treats the leftover as salvage.
        with storage.create("CURRENT.tmp") as f:  # repro: noqa[RA203]
            f.append(b"MANIFEST-000001\n")
        report = verify_db(storage, small_options())
        assert report.ok
        assert any("quarantined" in w for w in report.warnings)
        assert any("temp" in w for w in report.warnings)

    def test_orphan_is_warning_not_error(self):
        storage = MemStorage()
        _populate(storage)
        with storage.create("999999.sst") as f:
            f.append(b"not even a table")
        report = verify_db(storage, small_options())
        assert report.ok
        assert any("orphan" in w for w in report.warnings)

    def test_missing_manifest_detected(self):
        storage = MemStorage()
        _populate(storage)
        with storage.create(CURRENT_NAME) as f:
            f.append(b"MANIFEST-xxxxx\n")
        report = verify_db(storage, small_options())
        assert not report.ok


class TestRepair:
    def test_repair_after_lost_manifest(self):
        storage = MemStorage()
        _populate(storage, n=2000)
        # Disaster: CURRENT and all manifests gone.
        for name in list(storage.list()):
            if name.startswith("MANIFEST") or name == CURRENT_NAME:
                storage.delete(name)
        result = repair_db(storage, small_options())
        assert result["salvaged"]
        assert verify_db(storage, small_options()).ok
        with DB(storage, small_options()) as db:
            assert db.get(b"key-000123") == b"value-123"
            assert sum(1 for _ in db.items()) == 2000

    def test_repair_drops_corrupt_tables(self):
        storage = MemStorage()
        _populate(storage, n=2000)
        tables = [n for n in storage.list() if n.endswith(".sst")]
        victim = tables[0]
        corrupt_file(storage, victim, 15, 0x01)
        result = repair_db(storage, small_options())
        assert victim in result["dropped"]
        assert set(result["salvaged"]) == set(tables) - {victim}
        # DB opens; the corrupt table's keys are lost, the rest live.
        with DB(storage, small_options()) as db:
            total = sum(1 for _ in db.items())
            assert 0 < total < 2000

    def test_repair_preserves_newest_versions(self):
        storage = MemStorage()
        options = small_options()
        db = DB(storage, options)
        db.put(b"k", b"old")
        db.flush()
        db.put(b"k", b"new")
        db.flush()
        db.close()
        for name in list(storage.list()):
            if name.startswith("MANIFEST") or name == CURRENT_NAME:
                storage.delete(name)
        repair_db(storage, options)
        with DB(storage, options) as db:
            assert db.get(b"k") == b"new"
            # New writes get sequences above everything salvaged.
            db.put(b"k", b"newest")
            assert db.get(b"k") == b"newest"

    def test_repair_empty_dir(self):
        storage = MemStorage()
        result = repair_db(storage, small_options())
        assert result == {"salvaged": [], "dropped": []}
        with DB(storage, small_options()) as db:
            assert db.get(b"anything") is None

    def test_repair_missing_current_with_manifest_intact(self):
        """Only CURRENT lost: the manifest still exists but is
        unreachable; repair rebuilds from the tables and reopens."""
        storage = MemStorage()
        _populate(storage, n=800)
        storage.delete(CURRENT_NAME)
        assert not verify_db(storage, small_options()).ok
        result = repair_db(storage, small_options())
        assert result["salvaged"]
        assert verify_db(storage, small_options()).ok
        with DB(storage, small_options()) as db:
            assert sum(1 for _ in db.items()) == 800

    def test_repair_after_truncated_empty_manifest(self):
        """CURRENT points at a zero-byte manifest (torn at creation)."""
        storage = MemStorage()
        _populate(storage, n=800)
        manifest = storage.open(CURRENT_NAME).read_all().strip().decode()
        storage.delete(manifest)
        with storage.create(manifest) as f:
            f.sync()
        result = repair_db(storage, small_options())
        assert result["salvaged"]
        with DB(storage, small_options()) as db:
            assert sum(1 for _ in db.items()) == 800

    def test_repair_salvages_orphan_sst(self):
        """An output orphaned by a crash before its manifest commit is
        real data; repair re-registers it at L0."""
        storage = MemStorage()
        _populate(storage, n=800)
        # Clone a registered table under an unreferenced number: from
        # repair's point of view it is an orphan with valid contents.
        src = next(n for n in storage.list() if n.endswith(".sst"))
        data = storage.open(src).read_all()
        with storage.create("900000.sst") as f:
            f.append(data)
            f.sync()
        result = repair_db(storage, small_options())
        assert "900000.sst" in result["salvaged"]
        with DB(storage, small_options()) as db:
            assert sum(1 for _ in db.items()) == 800  # dup keys collapse

    def test_repair_renames_unnumbered_table_so_reopen_finds_it(self):
        """A table salvaged under a name the MANIFEST cannot record
        (it stores numbers) takes a fresh number; reopened, its keys
        read back."""
        storage = MemStorage()
        options = small_options()
        with DB(storage, options) as db:
            db.put(b"numbered", b"1")
            db.flush()
        # A second store's table, copied in under names of no number.
        other = MemStorage()
        with DB(other, options) as db:
            for i in range(50):
                db.put(b"backup-%03d" % i, b"value-%d" % i)
            db.flush()
        donor = next(n for n in other.list() if n.endswith(".sst"))
        blob = other.open(donor).read_all()
        for name in ("backup.sst", "7.sst"):
            with storage.create(name) as f:
                f.append(blob)
                f.sync()
        before = [n for n in storage.list() if n.endswith(".sst")]
        highest = max(int(n[:-4]) for n in before if n not in ("backup.sst", "7.sst"))
        result = repair_db(storage, options)
        assert not storage.exists("backup.sst") and not storage.exists("7.sst")
        salvaged = result["salvaged"]
        assert len(salvaged) == len(before)
        assert all(n == sstable_name(int(n[:-4])) for n in salvaged)
        assert len([n for n in salvaged if int(n[:-4]) > highest]) == 2
        assert verify_db(storage, options).ok
        with DB(storage, options) as db:
            assert db.get(b"numbered") == b"1"
            assert db.get(b"backup-017") == b"value-17"
            assert sum(1 for _ in db.items()) == 51

    def test_repair_readmits_clean_quarantined_table(self):
        """Quarantine replay: a renamed-aside table that verifies
        cleanly is renamed back and salvaged; a genuinely corrupt one
        stays aside."""
        storage = MemStorage()
        _populate(storage, n=800)
        tables = [n for n in storage.list() if n.endswith(".sst")]
        clean, dirty = tables[0], tables[1]
        storage.rename(clean, clean + ".quarantined")
        corrupt_file(storage, dirty, 30)
        storage.rename(dirty, dirty + ".quarantined")
        result = repair_db(storage, small_options())
        assert clean in result["salvaged"]
        assert dirty + ".quarantined" in result["dropped"]
        assert storage.exists(dirty + ".quarantined")
        assert not storage.exists(dirty)
        with DB(storage, small_options()) as db:
            total = sum(1 for _ in db.items())
            assert 0 < total <= 800

    def test_repair_then_reopen_round_trip(self):
        """repair → open → write → close → verify → open again."""
        storage = MemStorage()
        _populate(storage, n=500)
        storage.delete(CURRENT_NAME)
        repair_db(storage, small_options())
        with DB(storage, small_options()) as db:
            db.put(b"post-repair", b"yes")
            db.flush()
        assert verify_db(storage, small_options()).ok
        with DB(storage, small_options()) as db:
            assert db.get(b"post-repair") == b"yes"
            assert sum(1 for _ in db.items()) == 501


class TestCursor:
    def test_cursor_streams_lazily(self):
        with DB(MemStorage(), small_options()) as db:
            for i in range(500):
                db.put(b"k-%04d" % i, b"v%d" % i)
            cur = db.cursor()
            it = iter(cur)
            first = next(it)
            assert first == (b"k-0000", b"v0")
            # Writes after cursor creation are invisible to it.
            db.put(b"k-0001", b"OVERWRITTEN")
            assert next(it) == (b"k-0001", b"v1")
            # But a fresh cursor sees them.
            assert dict(db.cursor().items(b"k-0001", b"k-0002")) == {
                b"k-0001": b"OVERWRITTEN"
            }

    def test_cursor_seek(self):
        with DB(MemStorage(), small_options()) as db:
            for i in range(300):
                db.put(b"k-%04d" % i, b"v")
            db.flush()
            got = [k for k, _ in db.cursor().seek(b"k-0290")]
            assert got == [b"k-%04d" % i for i in range(290, 300)]

    def test_cursor_spans_all_levels(self):
        with DB(MemStorage(), small_options()) as db:
            import random

            order = list(range(2000))
            random.Random(5).shuffle(order)
            for i in order:
                db.put(b"k-%05d" % i, b"v%d" % i)
            # Data now spread across memtable, L0 and deeper levels.
            keys = [k for k, _ in db.cursor()]
            assert keys == [b"k-%05d" % i for i in range(2000)]

    def test_cursor_count(self):
        with DB(MemStorage(), small_options()) as db:
            for i in range(100):
                db.put(b"k-%03d" % i, b"v")
            db.delete(b"k-050")
            cur = db.cursor()
            assert cur.count() == 99
            assert cur.count(b"k-010", b"k-020") == 10

    def test_cursor_with_snapshot(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"a", b"1")
            snap = db.snapshot()
            db.put(b"a", b"2")
            db.put(b"b", b"1")
            assert dict(db.cursor(snapshot=snap)) == {b"a": b"1"}
            assert dict(db.cursor()) == {b"a": b"2", b"b": b"1"}
            snap.release()

    def test_cursor_survives_compaction(self):
        with DB(MemStorage(), small_options()) as db:
            import random

            order = list(range(1500))
            random.Random(9).shuffle(order)
            for i in order:
                db.put(b"k-%05d" % i, b"v%d" % i)
            cur = db.cursor()
            it = iter(cur)
            head = [next(it) for _ in range(10)]
            # Force a full reshape under the open cursor.
            db.compact_range()
            rest = list(it)
            keys = [k for k, _ in head + rest]
            assert keys == [b"k-%05d" % i for i in range(1500)]


class TestCompactRange:
    def test_compact_range_pushes_data_down(self):
        with DB(MemStorage(), small_options()) as db:
            import random

            order = list(range(3000))
            random.Random(2).shuffle(order)
            for i in order:
                db.put(b"k-%05d" % i, b"v%d" % i)
            n = db.compact_range()
            assert n >= 0
            assert db.num_files(0) == 0  # L0 fully drained
            assert db.get(b"k-01500") == b"v1500"
            assert sum(1 for _ in db.items()) == 3000

    def test_compact_range_partial(self):
        with DB(MemStorage(), small_options()) as db:
            for i in range(2000):
                db.put(b"k-%05d" % i, b"v")
            db.compact_range(b"k-00000", b"k-00500")
            assert db.get(b"k-00250") == b"v"

    def test_typed_accessors(self):
        with DB(MemStorage(), small_options()) as db:
            db.put(b"k", b"v")
            assert db.num_files(0) == 0
            assert db_counts(db.metrics_snapshot())["writes"] == 1
            assert "(empty)" in db.describe()
            assert db.memtable.approximate_bytes > 0
            assert db.total_bytes() == 0


class TestCompactionLog:
    def test_log_records_merges(self):
        import random

        with DB(MemStorage(), small_options()) as db:
            order = list(range(2500))
            random.Random(6).shuffle(order)
            for i in order:
                db.put(b"k-%05d" % i, b"v")
            log = db.compaction_log
            assert log, "expected at least one real compaction"
            for rec in log:
                assert rec["subtasks"] >= 1
                assert rec["input_bytes"] > 0
                assert rec["seconds"] > 0
                assert rec["procedure"] == "scp"
            assert any(
                rec["level"] == 0 and rec["output_level"] == 1 for rec in log
            )

    def test_log_is_bounded(self):
        with DB(MemStorage(), small_options()) as db:
            db._compaction_log_cap = 3
            for i in range(10):
                db._record_compaction({"level": 0, "inputs": 1, "outputs": 1,
                                       "subtasks": 1, "input_bytes": 1,
                                       "output_bytes": 1, "seconds": 0.1,
                                       "procedure": "scp"})
            assert len(db.compaction_log) == 3

    def test_empty_log_property(self):
        with DB(MemStorage(), small_options()) as db:
            assert db.compaction_log == []
