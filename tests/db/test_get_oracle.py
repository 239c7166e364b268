"""``DB.get`` at every snapshot against a dict model.

Writes, tombstones and empty values on user keys that are prefixes of
one another, with flushes and compactions in between, so each answer
may come from the memtable, an L0 table or a deeper run, through the
block cache or past it.  Every snapshot taken along the way must still
read exactly the state the model recorded for it, waiting or not.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import DB, WouldBlock
from repro.devices import MemStorage

from tests.helpers import small_options

USER_KEYS = [b"a", b"a\x00", b"a\x00\x00", b"ab", b"abc", b"b", b"b\xff", b"\xff"]
ABSENT = [b"\x00", b"a\x01", b"aa", b"abd", b"ba", b"\xff\xff"]

_ops = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(USER_KEYS), st.binary(max_size=300)),
    st.tuples(st.just("delete"), st.sampled_from(USER_KEYS)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("snapshot")),
)


def _get(db, key, snapshot, wait):
    try:
        return db.get(key, snapshot=snapshot, wait=wait)
    except WouldBlock:
        return db.get(key, snapshot=snapshot)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(_ops, min_size=20, max_size=80),
    cache_entries=st.sampled_from([0, 2, 1024]),
)
def test_get_at_every_snapshot_matches_the_model(ops, cache_entries):
    db = DB(
        MemStorage(),
        small_options(
            memtable_bytes=1024,
            sstable_bytes=1024,
            block_bytes=64,
            level1_bytes=2048,
            block_cache_entries=cache_entries,
        ),
    )
    model: dict[bytes, bytes] = {}
    views = [(None, model)]  # (snapshot, state it must read)
    try:
        for op in ops:
            if op[0] == "put":
                db.put(op[1], op[2])
                model[op[1]] = op[2]
            elif op[0] == "delete":
                db.delete(op[1])
                model.pop(op[1], None)
            elif op[0] == "flush":
                db.flush()
            elif op[0] == "compact":
                db.compact_range()
            else:
                views.append((db.snapshot(), dict(model)))
        for wait in (True, False, False):  # the second pass hits the cache
            for snapshot, state in views:
                for key in USER_KEYS + ABSENT:
                    assert _get(db, key, snapshot, wait) == state.get(key), (
                        key,
                        snapshot and snapshot.sequence,
                    )
    finally:
        db.close()
