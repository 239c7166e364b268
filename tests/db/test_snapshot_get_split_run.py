"""A GET at a held snapshot finds a version that lies in a later file of
its sorted run than the key's newest versions.

Every version of one key is kept by a snapshot, and tables are small
enough that a compaction writes the key's versions into several files
of one run.  The GET must seek the run by the probe's internal order
(key, snapshot) — the first file whose largest internal key is at or
past it — not by the user key alone, which stops at the file holding
the newest versions and misses every older one.  Scans were right all
along; they are the second oracle here.
"""

from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options

VERSIONS = 40


def _store():
    db = DB(MemStorage(), Options(sstable_bytes=256, block_bytes=64))
    held = []
    for i in range(VERSIONS):
        value = b"v%02d" % i * 4
        db.put(b"k", value)
        held.append((db.snapshot(), value))
        if i % 5 == 4:
            db.flush()
    db.compact_range()
    return db, held


def test_run_splits_the_key_across_files():
    db, _ = _store()
    with db:
        (level, files), = [
            (level, files) for level in range(1, 7) if (files := db.version.files[level])
        ]
        assert len(files) >= 3, db.describe()
        assert {meta.run for meta in files} == {0}
        assert all(meta.smallest[:-8] == meta.largest[:-8] == b"k" for meta in files)


def test_get_at_each_snapshot_sees_its_version():
    db, held = _store()
    with db:
        wrong = [
            i for i, (snap, value) in enumerate(held)
            if db.get(b"k", snapshot=snap) != value
        ]
        assert wrong == []
        assert db.get(b"k") == held[-1][1]


def test_scans_at_each_snapshot_agree():
    db, held = _store()
    with db:
        for snap, value in held:
            assert list(db.scan(snapshot=snap)) == [(b"k", value)]
            assert list(db.scan_reverse(snapshot=snap)) == [(b"k", value)]
