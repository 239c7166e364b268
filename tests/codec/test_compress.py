"""Tests for the LZ77, zlib, and null block codecs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.compress import (
    CODECS,
    CompressionError,
    get_codec,
    lz77_compress,
    lz77_decompress,
)
from repro.lsm import KIND_VALUE, BlockBuilder, encode_internal_key, internal_compare
from repro.workload import ValueGenerator, format_key
from tests.codec.lz77_reference import lz77_compress_reference


class TestLZ77Basics:
    def test_empty(self):
        assert lz77_decompress(lz77_compress(b"")) == b""

    def test_tiny_input_stays_literal(self):
        data = b"abc"
        assert lz77_decompress(lz77_compress(data)) == data

    def test_repetitive_input_compresses(self):
        data = b"keyvalue" * 512
        blob = lz77_compress(data)
        assert len(blob) < len(data) // 4
        assert lz77_decompress(blob) == data

    def test_incompressible_input_roundtrips(self):
        import random

        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(4096))
        blob = lz77_compress(data)
        assert lz77_decompress(blob) == data
        # Incompressible data should not blow up by more than the
        # literal-tag overhead (~1 byte per 60).
        assert len(blob) < len(data) * 1.1

    def test_rle_overlapping_copy(self):
        # A long run forces overlapping copies (offset < length).
        data = b"A" * 1000
        blob = lz77_compress(data)
        assert lz77_decompress(blob) == data
        assert len(blob) < 64

    def test_kv_like_payload(self):
        entries = b"".join(
            b"user%08d=profile-field-value-%04d;" % (i, i % 100) for i in range(500)
        )
        blob = lz77_compress(entries)
        assert lz77_decompress(blob) == entries
        assert len(blob) < len(entries)

    def test_long_literal_runs(self):
        # Exercise the 1-byte and 2-byte extended literal-length forms.
        import random

        rng = random.Random(1)
        for size in (59, 60, 61, 255, 256, 257, 5000):
            data = bytes(rng.randrange(256) for _ in range(size))
            assert lz77_decompress(lz77_compress(data)) == data


class TestLZ77Errors:
    def test_empty_blob_rejected(self):
        with pytest.raises(CompressionError):
            lz77_decompress(b"")

    def test_truncated_literal(self):
        blob = lz77_compress(b"hello world, hello world")
        with pytest.raises(CompressionError):
            lz77_decompress(blob[: len(blob) - 3])

    def test_length_header_mismatch(self):
        blob = bytearray(lz77_compress(b"abcdef"))
        blob[0] = 50  # claim 50 bytes, decode 6
        with pytest.raises(CompressionError):
            lz77_decompress(bytes(blob))

    def test_copy_offset_out_of_window(self):
        # Hand-craft: header len=4, then a copy referring before start.
        blob = bytes([4, 0x02 | (3 << 2), 10, 0])  # copy len 4 offset 10
        with pytest.raises(CompressionError):
            lz77_decompress(blob)

    def test_bad_tag(self):
        blob = bytes([1, 0x03])
        with pytest.raises(CompressionError):
            lz77_decompress(blob)

    @pytest.mark.parametrize("tag", [62, 63])
    def test_undefined_literal_tag(self, tag):
        # The format defines literal tags 0..59 (inline length) and 60 /
        # 61 (1 / 2 length bytes); 62 and 63 must not decode as plain
        # 63- and 64-byte literals.
        length = tag + 1
        blob = bytes([length, tag << 2]) + bytes(length)
        with pytest.raises(CompressionError):
            lz77_decompress(blob)


def _data_block(value_bytes: int, seed: int, start: int = 0, block_bytes: int = 4096) -> bytes:
    """A data block as the engine builds it from one ``perf`` payload shape:
    key index and version in front of a ``ValueGenerator`` value."""
    values = ValueGenerator(value_bytes - 24, seed=seed)
    builder = BlockBuilder(16, compare=internal_compare)
    index = start
    while builder.current_size_estimate() < block_bytes:
        value = b"%016d:%06d:" % (index, 0) + values.value_for(index * 1_000_003)
        builder.add(encode_internal_key(format_key(index), index + 1, KIND_VALUE), value)
        index += 1
    return builder.finish()


def _corpus() -> dict[str, bytes]:
    rng = random.Random(13)
    corpus = {
        "block-100B-values": _data_block(100, seed=101),
        "block-1KB-values": _data_block(1000, seed=101),
        "block-100B-values-other-seed": _data_block(100, seed=7, start=5000),
        "block-1KB-values-other-seed": _data_block(1000, seed=7, start=5000),
        "zeros-4k": bytes(4096),
        "random-4k": rng.randbytes(4096),
        "runs": b"ab" * 3000 + b"xyz" * 1000 + b"q" * 5000 + b"0123456789" * 40,
        "text": b"".join(b"key%05d=value%05d;" % (i, i * 7) for i in range(400)),
        # Thirty blocks back to back: matches reach into earlier blocks
        # and the input is longer than the 64 KiB copy window.
        "many-blocks": b"".join(_data_block(100, seed=3, start=40 * i) for i in range(30)),
    }
    for n in range(9):
        corpus[f"random-{n}"] = rng.randbytes(n)
        corpus[f"zeros-{n}"] = bytes(n)
    wide = _data_block(100, seed=5, block_bytes=4300)
    for delta in range(-3, 4):
        corpus[f"block-cut-at-4k{delta:+d}"] = wide[: 4096 + delta]
    # A phrase, 70 KB of zeros (which touch one table slot), the phrase
    # again: its table entries are still there, but farther back than
    # any copy can name.  With noise in between, the literal run also
    # passes the 64 KiB a single literal element can hold.
    phrase = rng.randbytes(300)
    corpus["aged-candidate"] = phrase + bytes(70_000) + phrase + rng.randbytes(100) + phrase
    corpus["aged-candidate-noise"] = phrase + rng.randbytes(70_000) + phrase
    return corpus


CORPUS = _corpus()


class TestLZ77MatchesReference:
    """Every emitted byte is the reference encoder's (tests/codec/lz77_reference.py)."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_seeded_corpus(self, name):
        data = CORPUS[name]
        blob = lz77_compress(data)
        assert blob == lz77_compress_reference(data)
        assert lz77_decompress(blob) == data

    def test_candidate_beyond_the_window_is_not_copied(self):
        # The first repeat of the phrase is 70,300 bytes after the
        # original: it must go out as literals, not as a copy.
        blob = lz77_compress(CORPUS["aged-candidate"])
        assert len(blob) > 2 * 300

    @settings(max_examples=200)
    @given(st.binary(max_size=4096))
    def test_random_bytes(self, data):
        assert lz77_compress(data) == lz77_compress_reference(data)

    @settings(max_examples=100)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([b"alpha", b"beta-beta", b"\x00" * 9, b"k=v;", b"\xff\x00"]),
                st.binary(max_size=12),
            ),
            max_size=400,
        )
    )
    def test_repetitive_bytes(self, parts):
        data = b"".join(parts)
        blob = lz77_compress(data)
        assert blob == lz77_compress_reference(data)
        assert lz77_decompress(blob) == data


@settings(max_examples=200)
@given(st.binary(max_size=4096))
def test_lz77_roundtrip_property(data):
    assert lz77_decompress(lz77_compress(data)) == data


@given(
    st.lists(
        st.sampled_from([b"alpha", b"beta", b"gamma", b"delta-key", b"\x00\xff"]),
        max_size=300,
    )
)
def test_lz77_roundtrip_structured(parts):
    data = b"|".join(parts)
    assert lz77_decompress(lz77_compress(data)) == data


class TestCodecRegistry:
    @pytest.mark.parametrize("name", sorted(CODECS))
    @given(data=st.binary(max_size=2048))
    @settings(max_examples=25)
    def test_all_codecs_roundtrip(self, name, data):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(data)) == data

    def test_null_is_identity(self):
        codec = get_codec("null")
        assert codec.compress(b"xyz") == b"xyz"

    def test_zlib_rejects_garbage(self):
        with pytest.raises(CompressionError):
            get_codec("zlib").decompress(b"not zlib data")

    def test_unknown_codec(self):
        with pytest.raises(KeyError):
            get_codec("snappy-real")

    def test_lz77_beats_null_on_kv_data(self):
        data = b"".join(b"%016d" % i + b"v" * 100 for i in range(200))
        assert len(get_codec("lz77").compress(data)) < len(data)
