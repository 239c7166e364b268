"""The table read path against a sorted-list model.

``Table.get``, ``iter_from`` and ``iter_reverse_from`` find their entry
by bisecting ``internal_order`` tuples.  The model is the plain list of
entries sorted by :func:`internal_compare` and scanned linearly, so the
two orders are checked against each other as well as the lookups: on
tables with several versions per key, tombstones, empty values and user
keys that are prefixes of one another, with and without a block cache,
on a miss and on a hit.
"""

from functools import cmp_to_key

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import MemStorage
from repro.lsm.cache import LRUCache
from repro.lsm.ikey import (
    KIND_DELETE,
    KIND_VALUE,
    MAX_SEQUENCE,
    encode_internal_key,
    internal_compare,
    internal_order,
    lookup_key,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table, WouldBlock

# Prefixes of one another, a zero byte after a prefix, and the empty key.
USER_KEYS = [b"", b"a", b"a\x00", b"a\x00\x00", b"ab", b"abc", b"b", b"b\xff", b"\xff"]
ABSENT = [b"\x00", b"a\x01", b"aa", b"abd", b"ba", b"\xff\xff"]


@st.composite
def table_entries(draw):
    """Sorted internal entries: per user key a few distinct sequences,
    each a value (possibly empty) or a tombstone."""
    users = draw(st.lists(st.sampled_from(USER_KEYS), min_size=1, max_size=9, unique=True))
    seqs = iter(draw(st.permutations(range(1, 8 * len(users) + 1))))
    entries = []
    for user in users:
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from([KIND_VALUE, KIND_VALUE, KIND_DELETE]))
            value = b"" if kind == KIND_DELETE else draw(st.binary(max_size=40))
            entries.append((encode_internal_key(user, next(seqs), kind), value))
    return sorted(entries, key=cmp_to_key(lambda a, b: internal_compare(a[0], b[0])))


def _build(entries, block_bytes):
    storage = MemStorage()
    options = Options(block_bytes=block_bytes, block_restart_interval=2)
    with storage.create("t.sst") as f:
        builder = TableBuilder(f, options)
        for ikey, value in entries:
            builder.add(ikey, value)
        builder.finish()
    return storage, options


def _probes(entries):
    top = max(int.from_bytes(k[-8:], "little") >> 8 for k, _ in entries) + 1
    for user in USER_KEYS + ABSENT:
        for seq in sorted({0, 1, top // 2, top, MAX_SEQUENCE}):
            yield lookup_key(user, seq)
            yield encode_internal_key(user, seq, KIND_DELETE)
    for ikey, _ in entries:  # every stored key exactly
        yield ikey


def _model_from(entries, probe):
    return [e for e in entries if internal_compare(e[0], probe) >= 0]


def _model_reverse_from(entries, probe):
    return [e for e in reversed(entries) if internal_compare(e[0], probe) <= 0]


def _assert_get(got, entries, probe):
    """``get`` answers the first entry >= the probe; where that entry
    holds another user key the bloom filter may answer None first."""
    after = _model_from(entries, probe)
    first = after[0] if after else None
    if first is not None and first[0][:-8] == probe[:-8]:
        assert got == first
    else:
        assert got in (None, first)


def _check_table(table, entries, probe):
    _assert_get(table.get(probe), entries, probe)
    _assert_get(table.get(probe, order=internal_order(probe)), entries, probe)
    assert list(table.iter_from(probe)) == _model_from(entries, probe)
    assert list(table.iter_reverse_from(probe)) == _model_reverse_from(entries, probe)


@settings(max_examples=60, deadline=None)
@given(entries=table_entries())
def test_internal_order_sorts_as_internal_compare(entries):
    keys = [k for k, _ in entries]
    assert sorted(keys, key=internal_order) == keys


@settings(max_examples=60, deadline=None)
@given(entries=table_entries(), block_bytes=st.sampled_from([64, 128, 4096]))
def test_uncached_table_matches_the_model(entries, block_bytes):
    storage, options = _build(entries, block_bytes)
    table = Table(storage.open("t.sst"), options)
    assert list(table) == entries
    assert list(table.iter_reverse_from(None)) == entries[::-1]
    for probe in _probes(entries):
        _check_table(table, entries, probe)


@settings(max_examples=60, deadline=None)
@given(
    entries=table_entries(),
    block_bytes=st.sampled_from([64, 128, 4096]),
    capacity=st.sampled_from([1, 2, 1024]),
)
def test_cached_table_matches_the_model_on_miss_and_hit(entries, block_bytes, capacity):
    storage, options = _build(entries, block_bytes)
    for probe in _probes(entries):
        cache = LRUCache(capacity)
        table = Table(storage.open("t.sst"), options, cache=cache)
        got = table.get(probe)  # a miss: read, decode, cache
        _assert_get(got, entries, probe)
        if cache.metrics.counter("cache.misses").value and capacity >= 2:
            hits = cache.metrics.counter("cache.hits").value
            assert table.get(probe, wait=False) == got  # a hit
            assert cache.metrics.counter("cache.hits").value > hits
        _check_table(table, entries, probe)  # mixes hits and misses
        _check_table(table, entries, probe)


@settings(max_examples=40, deadline=None)
@given(entries=table_entries(), block_bytes=st.sampled_from([64, 128]))
def test_wait_false_miss_raises_and_counts_nothing(entries, block_bytes):
    storage, options = _build(entries, block_bytes)
    cache = LRUCache(1024)
    table = Table(storage.open("t.sst"), options, cache=cache)
    for probe in _probes(entries):
        misses = cache.metrics.counter("cache.misses")
        before = misses.value, len(cache)
        try:
            got = table.get(probe, wait=False)
        except WouldBlock:
            assert (misses.value, len(cache)) == before
            got = table.get(probe)
        _assert_get(got, entries, probe)
