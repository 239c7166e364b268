"""Block compression codecs (compaction steps S3 and S5).

The paper's testbed uses snappy.  We implement ``lz77``, a pure-Python
byte-oriented LZ77 codec with a snappy-like wire format (varint
uncompressed length, then a stream of literal/copy elements), so the
compress step costs substantially more CPU than decompress — the same
asymmetry the paper profiles ("step comp is almost the most costly …
step decomp takes the least amount of time").  ``zlib`` (fast C) and
``null`` (identity) codecs are provided for ablations that shift the
CPU/IO balance.

Wire format of ``lz77`` (after the varint length prefix):

* literal element:  ``0x00 | (n-1) << 2`` for n <= 60, else tag 60/61
  with 1/2 extra length bytes, followed by ``n`` literal bytes.
* copy element:     ``0x01 | (len-4) << 2 | (off_hi << 5)`` + 1 offset
  byte (len 4..11, offset < 2048), or ``0x02 | (len-1) << 2`` + 2
  little-endian offset bytes (len 1..64, offset < 65536).

This mirrors snappy's element taxonomy closely enough that the cost
profile and compression ratio on key-value data are comparable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

from .varint import decode_varint32, encode_varint32

__all__ = [
    "CompressionError",
    "lz77_compress",
    "lz77_decompress",
    "Codec",
    "CODECS",
    "get_codec",
]


class CompressionError(ValueError):
    """Raised on malformed compressed input."""


_MIN_MATCH = 4
_MAX_MATCH = 64
_MAX_OFFSET = 65535
_HASH_BITS = 14
_HASH_SIZE = 1 << _HASH_BITS
_HASH_MULT = 0x1E35A7BD

# Lane masks for _hash_positions: the low word, and the hash bits, of
# one 64-bit lane.
_LANE_WORD = b"\xff\xff\xff\xff\x00\x00\x00\x00"
_LANE_HASH = (_HASH_SIZE - 1).to_bytes(8, "little")


def _hash_positions(data: bytes) -> memoryview:
    """The table slot of every position of ``data``, as a ``uint16`` view.

    Position ``p`` hashes to bits 18..31 of (little-endian word at
    ``p``) * ``_HASH_MULT``.  Instead of a Python call per position the
    input is read as one big integer and treated as 64-bit lanes, one
    per eight input bytes.  Pass ``k`` (0..7) shifts the input down
    ``k`` bytes, masks the low word of every lane, multiplies all lanes
    at once (a 32-bit word times the 29-bit multiplier stays inside its
    lane) and keeps each lane's 14 hash bits: the hashes of positions
    ``k``, ``k + 8``, ``k + 16``, ...  Four passes share a lane as
    16-bit slots, so passes 0-3 and 4-7 each become one byte string,
    and the two are interleaved lane by lane into position order.
    Entries for the last three positions (no full word) are junk and
    never read.
    """
    lanes = (len(data) + 7) // 8
    nbytes = 8 * lanes
    word_mask = int.from_bytes(_LANE_WORD * lanes, "little")
    hash_mask = int.from_bytes(_LANE_HASH * lanes, "little")
    x = int.from_bytes(data, "little")
    halves = [0, 0]
    for k in range(8):
        hashed = ((((x >> (8 * k)) & word_mask) * _HASH_MULT) >> (32 - _HASH_BITS)) & hash_mask
        halves[k >> 2] |= hashed << (16 * (k & 3))
    out = memoryview(bytearray(2 * nbytes)).cast("Q")
    out[0::2] = memoryview(halves[0].to_bytes(nbytes, "little")).cast("Q")
    out[1::2] = memoryview(halves[1].to_bytes(nbytes, "little")).cast("Q")
    return out.cast("B").cast("H")


def _emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    while start < end:
        run = end - start
        if run > 0xFFFF + 1:
            run = 0xFFFF + 1
        n = run - 1
        if n < 60:
            out.append(n << 2)
        elif n < 256:
            out.append(60 << 2)
            out.append(n)
        else:
            out.append(61 << 2)
            out.append(n & 0xFF)
            out.append(n >> 8)
        out += data[start : start + run]
        start += run


def _emit_copy(out: bytearray, offset: int, length: int) -> None:
    # Prefer the compact 2-byte form when it fits.
    while length > 0:
        if 4 <= length <= 11 and offset < 2048:
            out.append(0x01 | ((length - 4) << 2) | ((offset >> 8) << 5))
            out.append(offset & 0xFF)
            return
        chunk = length if length < _MAX_MATCH else _MAX_MATCH
        # Avoid leaving a sub-minimum tail that the 1-byte form can't encode;
        # the 2-byte form handles any length 1..64 so a tail is fine here.
        out.append(0x02 | ((chunk - 1) << 2))
        out.append(offset & 0xFF)
        out.append(offset >> 8)
        length -= chunk


def lz77_compress(data: bytes) -> bytes:
    """Compress ``data``; output starts with a varint of the input length.

    Greedy single-candidate matcher: a 16 K-entry table maps the hash
    of the next four bytes to the last position that had it.  Every
    emitted byte is pinned by ``tests/codec/lz77_reference.py``, the
    plain form of this loop.
    """
    n = len(data)
    out = bytearray(encode_varint32(n))
    if n < _MIN_MATCH + 1:
        if n:
            _emit_literal(out, data, 0, n)
        return bytes(out)

    limit = n - _MIN_MATCH
    hashes = _hash_positions(data)[: limit + 1]
    # An empty slot reads as a candidate beyond every offset.
    table = [-_MAX_OFFSET - 1] * _HASH_SIZE
    from_bytes = int.from_bytes
    max_offset = _MAX_OFFSET
    pos = 0
    literal_start = 0
    while pos <= limit:
        # Literal run: every position enters the table until one matches.
        for pos, h in enumerate(hashes[pos:], pos):
            cand = table[h]
            table[h] = pos
            if (
                pos - cand <= max_offset
                and data[cand : cand + _MIN_MATCH] == data[pos : pos + _MIN_MATCH]
            ):
                break
        else:
            break
        # Extend the match forward: the first differing byte of the two
        # tails is the lowest set bit of their XOR.
        ahead = data[pos + _MIN_MATCH : pos + _MAX_MATCH]
        behind = data[cand + _MIN_MATCH : cand + _MIN_MATCH + len(ahead)]
        if ahead == behind:
            match_len = _MIN_MATCH + len(ahead)
        else:
            diff = from_bytes(ahead, "little") ^ from_bytes(behind, "little")
            match_len = _MIN_MATCH + (((diff & -diff).bit_length() - 1) >> 3)
        if literal_start < pos:
            _emit_literal(out, data, literal_start, pos)
        _emit_copy(out, pos - cand, match_len)
        # Seed the table inside the match (sparsely, for speed).
        end = pos + match_len
        seed = pos + 1
        for h in hashes[seed:end:2]:
            table[h] = seed
            seed += 2
        pos = end
        literal_start = pos
    if literal_start < n:
        _emit_literal(out, data, literal_start, n)
    return bytes(out)


def lz77_decompress(blob: bytes) -> bytes:
    """Inverse of :func:`lz77_compress`.

    Raises :class:`CompressionError` on truncated or corrupt input,
    including a length-prefix mismatch.
    """
    try:
        expected, pos = decode_varint32(blob, 0)
    except ValueError as exc:
        raise CompressionError(str(exc)) from None
    out = bytearray()
    n = len(blob)
    try:
        while pos < n:
            tag = blob[pos]
            pos += 1
            kind = tag & 0x03
            if kind == 0x00:  # literal
                length = (tag >> 2) + 1
                if length > 60:
                    if length == 61:
                        length = blob[pos] + 1
                        pos += 1
                    elif length == 62:
                        length = (blob[pos] | blob[pos + 1] << 8) + 1
                        pos += 2
                    else:
                        raise CompressionError(f"bad literal tag {tag:#x}")
                if pos + length > n:
                    raise CompressionError("truncated literal")
                out += blob[pos : pos + length]
                pos += length
                continue
            if kind == 0x01:  # 1-byte-offset copy
                length = ((tag >> 2) & 0x07) + 4
                offset = ((tag >> 5) << 8) | blob[pos]
                pos += 1
            elif kind == 0x02:  # 2-byte-offset copy
                length = (tag >> 2) + 1
                offset = blob[pos] | blob[pos + 1] << 8
                pos += 2
            else:
                raise CompressionError(f"bad element tag {tag:#x}")
            # The copy, in place: one per element, so no call.
            start = len(out) - offset
            if offset == 0 or start < 0:
                raise CompressionError(f"copy offset {offset} out of window")
            if offset >= length:
                out += out[start : start + length]
            else:
                # Overlapping copy (RLE-style): the last ``offset`` bytes repeat.
                out += (out[start:] * (length // offset + 1))[:length]
    except IndexError:
        raise CompressionError("truncated input") from None
    if len(out) != expected:
        raise CompressionError(
            f"length mismatch: header says {expected}, decoded {len(out)}"
        )
    return bytes(out)


@dataclass(frozen=True)
class Codec:
    """A named compression codec."""

    name: str
    compress: Callable[[bytes], bytes]
    decompress: Callable[[bytes], bytes]


def _zlib_decompress(blob: bytes) -> bytes:
    try:
        return zlib.decompress(blob)
    except zlib.error as exc:
        raise CompressionError(str(exc)) from None


CODECS: dict[str, Codec] = {
    "null": Codec("null", lambda b: bytes(b), lambda b: bytes(b)),
    "lz77": Codec("lz77", lz77_compress, lz77_decompress),
    "zlib": Codec("zlib", lambda b: zlib.compress(b, 1), _zlib_decompress),
}


def get_codec(name: str) -> Codec:
    """Look up a codec by name (``null``, ``lz77``, ``zlib``)."""
    try:
        return CODECS[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available: {sorted(CODECS)}"
        ) from None
