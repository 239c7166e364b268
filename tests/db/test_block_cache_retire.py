"""Blocks of a table the version drops leave the block cache with it.

The cache is keyed ``(table number, block offset)`` and counts blocks,
so a retired table's blocks would otherwise hold slots, decoded, until
the LRU ages them out.
"""

import random

from repro.db import DB
from repro.devices import MemStorage

from tests.helpers import corrupt_file, small_options


def _cached_tables(db: DB) -> set[int]:
    return {number for number, _offset in db._cache._map}


def _live_tables(db: DB) -> set[int]:
    return {meta.number for _level, meta in db.version.all_files()}


def test_compaction_evicts_the_blocks_of_its_inputs():
    db = DB(MemStorage(), small_options(block_cache_entries=4096))
    keys = [b"key-%05d" % i for i in range(3000)]
    for key in keys:
        db.put(key, b"v1-" + key)
    for key in keys[::3]:
        assert db.get(key) == b"v1-" + key
    cached = _cached_tables(db)
    assert cached and cached <= _live_tables(db)
    for key in keys:  # overwrites: compactions retire the tables above
        db.put(key, b"v2-" + key)
    assert cached - _live_tables(db), "no cached table was retired"
    assert _cached_tables(db) <= _live_tables(db)
    for key in keys[::3]:
        assert db.get(key) == b"v2-" + key
    assert _cached_tables(db) <= _live_tables(db)
    db.close()


def test_a_scan_over_a_retired_table_caches_nothing():
    """A cursor keeps the tables it covers; once compaction retires
    one, the cursor still reads it, but past the cache."""
    db = DB(MemStorage(), small_options(block_cache_entries=4096))
    for parity in (0, 1):  # two overlapping L0 files: a real merge
        for i in range(parity, 600, 2):
            db.put(b"key-%05d" % i, b"v")
        db.flush()
    cursor = db.cursor()
    retired = _live_tables(db)
    db.compact_range()
    assert retired - _live_tables(db)
    db._cache.clear()
    assert sum(1 for _ in cursor.items()) == 600
    assert _cached_tables(db) <= _live_tables(db)
    db.close()


def test_quarantine_evicts_only_the_quarantined_table():
    """A corrupt L0 input is renamed aside with its cached blocks; the
    blocks of a table the compaction never touched stay cached."""
    storage = MemStorage()
    db = DB(storage, small_options(block_cache_entries=4096, l0_compaction_trigger=4))
    for i in range(900):
        db.put(b"b-%05d" % i, b"v-%d" % i)
    db.compact_range()
    for i in range(900):
        assert db.get(b"b-%05d" % i) == b"v-%d" % i
    bystanders = _cached_tables(db)
    assert bystanders
    for flush in range(3):
        for i in range(flush, 300, 3):
            db.put(b"a-%05d" % i, b"v-%d" % i)
        db.flush()
    assert db.version.num_files(0) == 3
    for i in range(300):
        assert db.get(b"a-%05d" % i) == b"v-%d" % i
    bad = db.version.files[0][0]
    assert bad.number in _cached_tables(db)
    corrupt_file(storage, bad.name, 40)
    db._tables.clear()  # reopen, so compaction reads the damaged bytes
    db.put(b"a-99999", b"v")
    db.flush()  # the fourth L0 file: its compaction finds the damage
    assert bad.name + ".quarantined" in db.quarantined
    assert bad.number not in _cached_tables(db)
    assert bystanders <= _cached_tables(db) <= _live_tables(db)
    db.close()
