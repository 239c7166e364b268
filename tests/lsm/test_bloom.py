"""Tests for the bloom filter."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.bloom import (
    BloomFilter,
    BloomFilterBuilder,
    bloom_hash,
    piece_hash,
    piece_hashes,
)

from tests.lsm.bloom_reference import filter_of_keys, filter_reference, piece_hash_reference


def _bloom_hash_reference(key: bytes, seed: int = 0xBC9F1D34) -> int:
    """LevelDB's Hash() spelled out byte by byte (the engine's form
    before its kernel pass): what ``bloom_hash`` must keep returning,
    or every stored filter stops matching its keys."""
    m = 0xC6A4A793
    h = (seed ^ (len(key) * m)) & 0xFFFFFFFF
    i = 0
    n = len(key)
    while i + 4 <= n:
        w = key[i] | key[i + 1] << 8 | key[i + 2] << 16 | key[i + 3] << 24
        h = (h + w) & 0xFFFFFFFF
        h = (h * m) & 0xFFFFFFFF
        h ^= h >> 16
        i += 4
    rest = n - i
    if rest == 3:
        h = (h + (key[i + 2] << 16)) & 0xFFFFFFFF
    if rest >= 2:
        h = (h + (key[i + 1] << 8)) & 0xFFFFFFFF
    if rest >= 1:
        h = (h + key[i]) & 0xFFFFFFFF
        h = (h * m) & 0xFFFFFFFF
        h ^= h >> 24
    return h


class TestHash:
    def test_matches_reference_on_every_length(self):
        rng = random.Random(29)
        for length in range(41):
            for _ in range(25):
                key = rng.randbytes(length)
                assert bloom_hash(key) == _bloom_hash_reference(key)
                assert bloom_hash(key, seed=7) == _bloom_hash_reference(key, seed=7)

    @given(st.binary(max_size=40), st.integers(0, 0xFFFFFFFF))
    def test_matches_reference(self, key, seed):
        assert bloom_hash(key, seed) == _bloom_hash_reference(key, seed)

    def test_known_values(self):
        # Pinned outputs (taken before the kernel pass): stored filters
        # depend on them.
        assert bloom_hash(b"") == 0xBC9F1D34
        assert bloom_hash(b"0000000000001234") == 0xA3E329E3
        assert bloom_hash(b"\xff\xff\xff") == 0x37559553
        assert bloom_hash(b"user-key-17") == 0xF7523F22

    def test_deterministic(self):
        assert bloom_hash(b"key") == bloom_hash(b"key")

    def test_seed_changes_hash(self):
        assert bloom_hash(b"key", seed=1) != bloom_hash(b"key", seed=2)

    def test_distributes(self):
        hashes = {bloom_hash(b"key-%d" % i) for i in range(1000)}
        assert len(hashes) > 990  # essentially no collisions

    @given(st.binary(max_size=64))
    def test_32bit_range(self, key):
        assert 0 <= bloom_hash(key) <= 0xFFFFFFFF


class TestPieceHash:
    @given(st.binary(max_size=40))
    def test_matches_reference(self, key):
        assert piece_hash(key) == piece_hash_reference(key)

    def test_known_values(self):
        # Pinned outputs: stored filter pieces depend on them.
        assert piece_hash(b"") == 0
        assert piece_hash(b"0000000000001234") == 0xCC371D8C
        assert piece_hash(b"user-key-17") == 0x361718A2

    def test_last_byte_reaches_the_low_bits(self):
        """Keys differing only in their last byte spread over a small
        piece: what ``bloom_hash`` does not do."""
        keys = [b"000000000000123" + bytes([last]) for last in range(256)]
        assert len({piece_hash(k) % 352 for k in keys}) > 150
        assert len({bloom_hash(k) % 352 for k in keys}) <= 11


class TestFilter:
    def _filter(self, keys, bits_per_key=10):
        builder = BloomFilterBuilder(bits_per_key)
        for k in keys:
            builder.add(k)
        return BloomFilter(builder.finish())

    def test_no_false_negatives(self):
        keys = [b"user-%06d" % i for i in range(2000)]
        bf = self._filter(keys)
        assert all(bf.may_contain(k) for k in keys)

    def test_false_positive_rate_reasonable(self):
        keys = [b"present-%d" % i for i in range(2000)]
        bf = self._filter(keys, bits_per_key=10)
        fp = sum(bf.may_contain(b"absent-%d" % i) for i in range(10000))
        assert fp / 10000 < 0.03  # ~1% expected at 10 bits/key

    def test_more_bits_fewer_false_positives(self):
        keys = [b"k%d" % i for i in range(500)]
        rates = []
        for bits in (4, 8, 16):
            bf = self._filter(keys, bits_per_key=bits)
            fp = sum(bf.may_contain(b"x%d" % i) for i in range(5000))
            rates.append(fp)
        assert rates[0] > rates[1] > rates[2]

    def test_empty_filter_blob_matches_all(self):
        bf = BloomFilter(b"")
        assert bf.may_contain(b"anything")

    def test_empty_builder(self):
        blob = BloomFilterBuilder().finish()
        bf = BloomFilter(blob)
        # No keys added: nothing should match (all bits zero).
        assert not bf.may_contain(b"key")

    def test_invalid_bits_per_key(self):
        with pytest.raises(ValueError):
            BloomFilterBuilder(-1)

    def test_corrupt_k_treated_as_match_all(self):
        builder = BloomFilterBuilder()
        builder.add(b"x")
        blob = bytearray(builder.finish())
        blob[-1] = 31  # reserved k value
        assert BloomFilter(bytes(blob)).may_contain(b"never-added")

    @settings(max_examples=50)
    @given(st.sets(st.binary(min_size=1, max_size=16), max_size=100))
    def test_membership_property(self, keys):
        bf = self._filter(sorted(keys))
        for k in keys:
            assert bf.may_contain(k)


class TestKernelsMatchReference:
    """The lane kernels against the plain loops they replace: the scalar
    ``piece_hash`` per key, and the per-probe filter build of
    ``tests/lsm/bloom_reference.py``."""

    def test_batch_hash_every_length_and_count(self):
        rng = random.Random(41)
        for length in range(41):
            for count in (0, 1, 2, 3, 4, 35, 100):
                keys = [rng.randbytes(length) for _ in range(count)]
                assert piece_hashes(keys) == [piece_hash(k) for k in keys]

    @given(st.lists(st.binary(max_size=40), max_size=60))
    def test_batch_hash_mixed_lengths(self, keys):
        assert piece_hashes(keys) == [piece_hash(k) for k in keys]

    @given(
        st.integers(0, 40).flatmap(
            lambda n: st.lists(st.binary(min_size=n, max_size=n), max_size=60)
        )
    )
    def test_batch_hash_equal_lengths(self, keys):
        # One length per list, as in a block of fixed-width keys.
        assert piece_hashes(keys) == [piece_hash(k) for k in keys]

    def test_batch_hash_extreme_words(self):
        # All-ones and all-zero keys beside each other: nothing may carry
        # into the next lane.
        for length in (4, 15, 16, 17, 24, 40):
            keys = [b"\xff" * length, bytes(length), b"\xff" * length] * 5
            assert piece_hashes(keys) == [piece_hash(k) for k in keys]

    @pytest.mark.parametrize("bits_per_key", [1, 10, 20])
    @pytest.mark.parametrize("n", [0, 1, 7, 640, 5000])
    def test_filter_bytes_equal_reference(self, n, bits_per_key):
        rng = random.Random(n * 31 + bits_per_key)
        hashes = [rng.getrandbits(32) for _ in range(n)]
        # The edges of the hash range, where Barrett's quotient is tightest.
        hashes[: min(n, 3)] = [0xFFFFFFFF, 0, 0xFFFFFFFE][: min(n, 3)]
        builder = BloomFilterBuilder(bits_per_key)
        builder.add_hashes(hashes)
        assert builder.finish() == filter_reference(hashes, bits_per_key)

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 0xFFFFFFFF), max_size=300),
        st.integers(0, 24),
    )
    def test_filter_property(self, hashes, bits_per_key):
        builder = BloomFilterBuilder(bits_per_key)
        builder.add_hashes(hashes)
        assert builder.finish() == filter_reference(hashes, bits_per_key)

    def test_filter_of_added_keys(self):
        keys = [b"user-%d" % i for i in range(700)]  # four key lengths
        builder = BloomFilterBuilder(10)
        for key in keys:
            builder.add(key)
        assert builder.finish() == filter_of_keys(keys, 10)
