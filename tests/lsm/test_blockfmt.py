"""Tests for the prefix-compressed block format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.varint import encode_varint32, put_fixed32
from repro.lsm.blockfmt import Block, BlockBuilder, BlockCorruption, _shared_prefix_len


def _build(entries, restart_interval=16):
    builder = BlockBuilder(restart_interval)
    for k, v in entries:
        builder.add(k, v)
    return builder.finish()


class TestBuilder:
    def test_empty_block(self):
        data = BlockBuilder().finish()
        block = Block(data)
        assert list(block) == []
        assert block.first_key() is None

    def test_single_entry(self):
        block = Block(_build([(b"key", b"value")]))
        assert list(block) == [(b"key", b"value")]

    def test_out_of_order_rejected(self):
        builder = BlockBuilder()
        builder.add(b"b", b"")
        with pytest.raises(ValueError):
            builder.add(b"a", b"")

    def test_duplicate_rejected(self):
        builder = BlockBuilder()
        builder.add(b"a", b"")
        with pytest.raises(ValueError):
            builder.add(b"a", b"")

    def test_invalid_restart_interval(self):
        with pytest.raises(ValueError):
            BlockBuilder(0)

    def test_prefix_compression_shrinks(self):
        shared = [(b"user-common-prefix-%04d" % i, b"v") for i in range(100)]
        distinct = [(bytes([i]) * 23, b"v") for i in range(100)]
        assert len(_build(shared)) < len(_build(distinct))

    def test_reset_reuses_builder(self):
        builder = BlockBuilder()
        builder.add(b"z", b"1")
        builder.reset()
        assert builder.empty
        builder.add(b"a", b"2")  # would be out of order without reset
        block = Block(builder.finish())
        assert list(block) == [(b"a", b"2")]

    def test_size_estimate_matches_finish(self):
        builder = BlockBuilder(4)
        for i in range(50):
            builder.add(b"key-%04d" % i, b"val-%d" % i)
        assert builder.current_size_estimate() == len(builder.finish())

    def test_restart_points_created(self):
        block = Block(_build([(b"%04d" % i, b"") for i in range(64)], 16))
        assert block.num_restarts() == 4


def _shared_prefix_len_reference(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def _block_reference(entries, restart_interval: int) -> bytes:
    """The block wire format written out long-hand: every header field a
    varint, whatever its size."""
    out = bytearray()
    restarts = []
    last_key = b""
    for i, (key, value) in enumerate(entries):
        if i % restart_interval == 0:
            restarts.append(len(out))
            shared = 0
        else:
            shared = _shared_prefix_len_reference(last_key, key)
        out += encode_varint32(shared)
        out += encode_varint32(len(key) - shared)
        out += encode_varint32(len(value))
        out += key[shared:] + value
        last_key = key
    for r in restarts:
        out += put_fixed32(r)
    return bytes(out + put_fixed32(len(restarts)))


class TestKernelsMatchReference:
    def test_shared_prefix_len_on_random_keys(self):
        rng = random.Random(17)
        for _ in range(2000):
            a = rng.randbytes(rng.randrange(41))
            # b: a shared prefix of a, then anything.
            b = a[: rng.randrange(len(a) + 1)] + rng.randbytes(rng.randrange(41))
            assert _shared_prefix_len(a, b) == _shared_prefix_len_reference(a, b)
            assert _shared_prefix_len(b, a) == _shared_prefix_len_reference(b, a)

    @given(st.binary(max_size=40), st.binary(max_size=40))
    def test_shared_prefix_len_property(self, a, b):
        assert _shared_prefix_len(a, b) == _shared_prefix_len_reference(a, b)

    def test_shared_prefix_len_trailing_zero_bytes(self):
        # Zero bytes are invisible to an integer comparison of unequal
        # lengths; the prefix length must not depend on them.
        assert _shared_prefix_len(b"ab\x00\x00", b"ab\x00") == 3
        assert _shared_prefix_len(b"\x00\x00", b"\x00\x01") == 1
        assert _shared_prefix_len(b"", b"\x00") == 0

    @pytest.mark.parametrize("key_pad,value_len", [(0, 5), (0, 127), (0, 128), (150, 20), (150, 300)])
    def test_block_bytes_with_short_and_long_fields(self, key_pad, value_len):
        # One- and multi-byte varints in each of the three header
        # fields: shared >= 128 needs long keys with a long common prefix.
        entries = [
            (b"p" * key_pad + b"key-%05d" % i, bytes([i % 251]) * value_len)
            for i in range(60)
        ]
        blob = _build(entries, restart_interval=8)
        assert blob == _block_reference(entries, 8)
        assert list(Block(blob)) == entries
        assert list(Block(blob).seek(entries[37][0])) == entries[37:]


class TestSeek:
    ENTRIES = [(b"key-%04d" % i, b"val-%d" % i) for i in range(0, 200, 2)]

    def test_seek_exact(self):
        block = Block(_build(self.ENTRIES))
        hits = list(block.seek(b"key-0100"))
        assert hits[0] == (b"key-0100", b"val-100")
        assert len(hits) == 50

    def test_seek_between_keys(self):
        block = Block(_build(self.ENTRIES))
        hits = list(block.seek(b"key-0101"))  # odd: not present
        assert hits[0][0] == b"key-0102"

    def test_seek_before_first(self):
        block = Block(_build(self.ENTRIES))
        assert next(iter(block.seek(b"")))[0] == b"key-0000"

    def test_seek_past_last(self):
        block = Block(_build(self.ENTRIES))
        assert list(block.seek(b"zzz")) == []

    @settings(max_examples=50)
    @given(st.binary(max_size=10))
    def test_seek_matches_linear_scan(self, target):
        block = Block(_build(self.ENTRIES))
        expected = [(k, v) for k, v in self.ENTRIES if k >= target]
        assert list(block.seek(target)) == expected

    @given(
        st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=60, unique=True),
        st.integers(min_value=1, max_value=8),
    )
    def test_roundtrip_property(self, keys, restart_interval):
        entries = [(k, b"v:" + k) for k in sorted(keys)]
        block = Block(_build(entries, restart_interval))
        assert list(block) == entries


class TestCorruption:
    def test_too_short(self):
        with pytest.raises(BlockCorruption):
            Block(b"ab")

    def test_bad_restart_count(self):
        data = _build([(b"a", b"1")])
        # Overwrite the restart count with an absurd value.
        bad = data[:-4] + b"\xff\xff\xff\x7f"
        with pytest.raises(BlockCorruption):
            Block(bad)

    def test_entry_overrun_detected(self):
        data = bytearray(_build([(b"abcdef", b"payload")]))
        data[2] = 200  # inflate value_len varint
        with pytest.raises(BlockCorruption):
            list(Block(bytes(data)))

    def test_custom_comparator_ordering(self):
        # Reverse-order comparator accepts descending keys.
        def rev(a, b):
            return (a < b) - (a > b)
        builder = BlockBuilder(4, compare=rev)
        keys = [b"c", b"b", b"a"]
        for k in keys:
            builder.add(k, b"")
        block = Block(builder.finish(), compare=rev)
        assert [k for k, _ in block] == keys
        assert [k for k, _ in block.seek(b"b")] == [b"b", b"a"]


def _decode_reference(block):
    """Entry by entry through ``_parse_entry``: the decoder that
    ``Block.entries`` inlines.  Returns the entries, or the error."""
    out, pos, key = [], 0, b""
    try:
        while pos < block._entries_end:
            key, value, pos = block._parse_entry(pos, key)
            out.append((key, value))
    except BlockCorruption as exc:
        return ("error", str(exc))
    return out


def _decode_bulk(block):
    try:
        return block.entries()
    except BlockCorruption as exc:
        return ("error", str(exc))


_ENTRY_SHAPES = {
    # (key prefix length, value length): one-byte headers; a 1 KB value
    # (two-byte value_len); shared and non_shared >= 128 (two bytes);
    # a 20 KB value (three bytes).
    "short": (0, 100),
    "1KB-values": (0, 1000),
    "long-keys": (150, 20),
    "long-keys-1KB": (150, 1000),
    "20KB-values": (0, 20_000),
}


def _shaped_entries(prefix, value_len, n=40):
    return [
        (b"p" * prefix + b"key-%05d" % (i * 7), bytes([i % 251]) * value_len)
        for i in range(n)
    ]


class TestBulkDecodeMatchesReference:
    @pytest.mark.parametrize("restart_interval", [1, 3, 16])
    @pytest.mark.parametrize("shape", sorted(_ENTRY_SHAPES))
    def test_entries_equal_entry_by_entry(self, shape, restart_interval):
        entries = _shaped_entries(*_ENTRY_SHAPES[shape])
        block = Block(_build(entries, restart_interval))
        assert block.entries() == _decode_reference(block) == entries
        assert list(block) == entries
        assert list(block.iter_reverse()) == entries[::-1]

    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=200), st.binary(max_size=300)),
            max_size=40,
            unique_by=lambda e: e[0],
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_entries_property(self, pairs, restart_interval):
        entries = sorted(pairs)
        block = Block(_build(entries, restart_interval))
        assert block.entries() == _decode_reference(block) == entries

    def test_empty_block(self):
        block = Block(BlockBuilder().finish())
        assert block.entries() == _decode_reference(block) == []

    @pytest.mark.parametrize("shape", sorted(_ENTRY_SHAPES))
    def test_truncated_entries_raise_the_same(self, shape):
        # Cut the entry region anywhere, keep one restart at 0: a header
        # or a key or value runs past the end.
        entries = _shaped_entries(*_ENTRY_SHAPES[shape], n=6)
        block = Block(_build(entries, 2))
        region = block._data[: block._entries_end]
        tail = put_fixed32(0) + put_fixed32(1)
        outcomes = set()
        for cut in range(len(region)):
            damaged = Block(region[:cut] + tail)
            expected = _decode_reference(damaged)
            assert _decode_bulk(damaged) == expected, cut
            outcomes.add(expected[0] if isinstance(expected, tuple) else "ok")
        assert "error" in outcomes

    @settings(max_examples=300)
    @given(
        st.sampled_from(sorted(_ENTRY_SHAPES)),
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=255),
    )
    def test_damaged_byte_raises_the_same(self, shape, where, byte):
        # Any byte of the entry region overwritten: the same entries, or
        # the same BlockCorruption with the same message.
        entries = _shaped_entries(*_ENTRY_SHAPES[shape], n=5)
        data = bytearray(_build(entries, 2))
        end = Block(bytes(data))._entries_end
        data[where % end] = byte
        block = Block(bytes(data))
        assert _decode_bulk(block) == _decode_reference(block)

    def test_overrun_and_overlong_varint_messages(self):
        data = bytearray(_build([(b"abcdef", b"payload")]))
        data[2] = 100  # value_len past the entry region
        assert _decode_bulk(Block(bytes(data))) == ("error", "entry overruns block")
        # A six-byte varint in the first header field.
        bad = b"\x80\x80\x80\x80\x80\x01" + put_fixed32(0) + put_fixed32(1)
        assert _decode_bulk(Block(bad)) == _decode_reference(Block(bad))
        assert _decode_bulk(Block(bad))[0] == "error"
