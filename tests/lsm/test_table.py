"""Tests for SSTable builder + reader (the full table format)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import MemStorage
from repro.lsm.cache import LRUCache
from repro.lsm.ikey import (
    KIND_VALUE,
    MAX_SEQUENCE,
    decode_internal_key,
    encode_internal_key,
    lookup_key,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_format import TableCorruption
from repro.lsm.table_reader import Table


def _ik(user: bytes, seq: int = 1) -> bytes:
    return encode_internal_key(user, seq, KIND_VALUE)


def _build_table(entries, options=None, storage=None, name="t.sst"):
    storage = storage or MemStorage()
    options = options or Options()
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for ikey, value in entries:
            builder.add(ikey, value)
        builder.finish()
    return storage, options


def _open(storage, options, name="t.sst", cache=None):
    return Table(storage.open(name), options, cache=cache)


SMALL = [(_ik(b"key-%04d" % i), b"value-%d" % i) for i in range(100)]


class TestRoundtrip:
    def test_iterate_all(self):
        storage, options = _build_table(SMALL)
        table = _open(storage, options)
        assert list(table) == SMALL
        assert table.num_entries == len(SMALL)

    def test_multi_block_table(self):
        options = Options(block_bytes=256)  # force many blocks
        entries = [(_ik(b"key-%05d" % i), b"v" * 50) for i in range(500)]
        storage, _ = _build_table(entries, options)
        table = _open(storage, options)
        assert table.num_blocks() > 10
        assert list(table) == entries

    def test_empty_table(self):
        storage, options = _build_table([])
        table = _open(storage, options)
        assert list(table) == []
        assert table.get(lookup_key(b"x", MAX_SEQUENCE)) is None

    @pytest.mark.parametrize("compression", ["null", "lz77", "zlib"])
    def test_all_codecs(self, compression):
        options = Options(compression=compression, block_bytes=512)
        entries = [(_ik(b"key-%04d" % i), b"payload-%d" % i * 3) for i in range(200)]
        storage, _ = _build_table(entries, options)
        assert list(_open(storage, options)) == entries

    def test_incompressible_blocks_stored_raw(self):
        import random

        rng = random.Random(3)
        options = Options(compression="lz77", block_bytes=512)
        entries = [
            (_ik(b"k%04d" % i), bytes(rng.randrange(256) for _ in range(64)))
            for i in range(100)
        ]
        storage, _ = _build_table(entries, options)
        assert list(_open(storage, options)) == entries


class TestGet:
    def test_point_lookup(self):
        storage, options = _build_table(SMALL)
        table = _open(storage, options)
        hit = table.get(lookup_key(b"key-0042", MAX_SEQUENCE))
        assert hit is not None
        key, value = hit
        assert decode_internal_key(key)[0] == b"key-0042"
        assert value == b"value-42"

    def test_missing_key_bloom_rejects(self):
        storage, options = _build_table(SMALL)
        table = _open(storage, options)
        hit = table.get(lookup_key(b"nonexistent", MAX_SEQUENCE))
        assert hit is None

    def test_lookup_respects_snapshot_ordering(self):
        entries = [
            (encode_internal_key(b"k", 9, KIND_VALUE), b"v9"),
            (encode_internal_key(b"k", 5, KIND_VALUE), b"v5"),
            (encode_internal_key(b"k", 1, KIND_VALUE), b"v1"),
        ]
        storage, options = _build_table(entries)
        table = _open(storage, options)
        key, value = table.get(lookup_key(b"k", 6))
        assert decode_internal_key(key)[1] == 5
        assert value == b"v5"

    def test_get_between_blocks(self):
        # Disable the bloom filter: this exercises get()'s successor
        # semantics for a key that is absent but inside the key span.
        options = Options(block_bytes=128, bloom_bits_per_key=0)
        entries = [(_ik(b"key-%04d" % (i * 10)), b"v%d" % i) for i in range(100)]
        storage, _ = _build_table(entries, options)
        table = _open(storage, options)
        # A key that is absent but sorts between blocks.
        hit = table.get(lookup_key(b"key-0015", MAX_SEQUENCE))
        assert hit is not None
        assert decode_internal_key(hit[0])[0] == b"key-0020"

    def test_iter_from(self):
        storage, options = _build_table(SMALL)
        table = _open(storage, options)
        out = list(table.iter_from(lookup_key(b"key-0090", MAX_SEQUENCE)))
        assert len(out) == 10
        assert decode_internal_key(out[0][0])[0] == b"key-0090"

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=99))
    def test_every_key_findable(self, i):
        storage, options = _build_table(SMALL)
        table = _open(storage, options)
        hit = table.get(lookup_key(b"key-%04d" % i, MAX_SEQUENCE))
        assert hit is not None and hit[1] == b"value-%d" % i


class TestCacheIntegration:
    def test_second_read_hits_cache(self):
        cache = LRUCache(64)
        options = Options(block_bytes=256)
        entries = [(_ik(b"key-%04d" % i), b"v" * 30) for i in range(200)]
        storage, _ = _build_table(entries, options)
        table = _open(storage, options, cache=cache)
        table.get(lookup_key(b"key-0100", MAX_SEQUENCE))
        misses_after_first = cache.metrics.counter("cache.misses").value
        table.get(lookup_key(b"key-0100", MAX_SEQUENCE))
        assert cache.metrics.counter("cache.misses").value == misses_after_first
        assert cache.metrics.counter("cache.hits").value >= 1


class TestCorruptionDetection:
    def test_flipped_data_byte_detected(self):
        storage, options = _build_table(SMALL)
        data = bytearray(storage.open("t.sst").read_all())
        data[10] ^= 0x01  # inside the first data block
        bad = MemStorage()
        with bad.create("t.sst") as f:
            f.append(bytes(data))
        table = Table(bad.open("t.sst"), options)
        with pytest.raises(TableCorruption):
            list(table)

    def test_bad_magic_rejected(self):
        storage, options = _build_table(SMALL)
        data = bytearray(storage.open("t.sst").read_all())
        data[-1] ^= 0xFF
        bad = MemStorage()
        with bad.create("t.sst") as f:
            f.append(bytes(data))
        with pytest.raises(TableCorruption):
            Table(bad.open("t.sst"), options)

    def test_truncated_file_rejected(self):
        bad = MemStorage()
        with bad.create("t.sst") as f:
            f.append(b"tiny")
        with pytest.raises(TableCorruption):
            Table(bad.open("t.sst"), Options())

    def test_paranoid_off_skips_verification(self):
        options = Options(compression="null", paranoid_checks=False)
        storage, _ = _build_table(SMALL, options)
        data = bytearray(storage.open("t.sst").read_all())
        # Flip a bit inside the first block's *value* region; with null
        # compression the block still parses, just with a wrong byte.
        data[30] ^= 0x01
        bad = MemStorage()
        with bad.create("t.sst") as f:
            f.append(bytes(data))
        list(Table(bad.open("t.sst"), options))  # should not raise


class TestBuilderErrors:
    def test_out_of_order_add(self):
        storage = MemStorage()
        with storage.create("t") as f:
            builder = TableBuilder(f)
            builder.add(_ik(b"b"), b"")
            with pytest.raises(ValueError):
                builder.add(_ik(b"a"), b"")

    def test_add_after_finish(self):
        storage = MemStorage()
        with storage.create("t") as f:
            builder = TableBuilder(f)
            builder.add(_ik(b"a"), b"")
            builder.finish()
            with pytest.raises(RuntimeError):
                builder.add(_ik(b"b"), b"")

    def test_double_finish(self):
        storage = MemStorage()
        with storage.create("t") as f:
            builder = TableBuilder(f)
            builder.finish()
            with pytest.raises(RuntimeError):
                builder.finish()

    def test_smallest_largest_tracked(self):
        storage = MemStorage()
        with storage.create("t") as f:
            builder = TableBuilder(f)
            for ikey, v in SMALL:
                builder.add(ikey, v)
            assert builder.smallest == SMALL[0][0]
            assert builder.largest == SMALL[-1][0]
            builder.finish()
