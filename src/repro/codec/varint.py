"""Variable-length and fixed-width integer coding.

This is the wire format used throughout the SSTable, WAL, and block
layers: LEB128-style unsigned varints (as in LevelDB) plus fixed-width
little-endian 32/64-bit helpers.  All functions operate on ``bytes`` /
``bytearray`` and return ``(value, new_offset)`` pairs on the decode
side so callers can walk a buffer without slicing.
"""

from __future__ import annotations

import struct

__all__ = [
    "encode_varint32",
    "encode_varint64",
    "decode_varint32",
    "decode_varint64",
    "varint_length",
    "put_fixed32",
    "put_fixed64",
    "get_fixed32",
    "get_fixed64",
    "MAX_VARINT32_LEN",
    "MAX_VARINT64_LEN",
    "BYTE",
]

MAX_VARINT32_LEN = 5
MAX_VARINT64_LEN = 10

_FIXED32 = struct.Struct("<I")
_FIXED64 = struct.Struct("<Q")
#: ``BYTE[i] == bytes((i,))``: one-byte strings, built once.
BYTE = [bytes((i,)) for i in range(256)]


class VarintError(ValueError):
    """Raised on malformed or out-of-range varint data."""


def encode_varint64(value: int) -> bytes:
    """Encode a non-negative integer < 2**64 as a LEB128 varint, each
    byte from a table (every index entry's handle is two of these)."""
    if 0 <= value < 0x80:
        return BYTE[value]
    if value < 0 or value >= 1 << 64:
        raise VarintError(f"varint64 out of range: {value}")
    out = b""
    while value >= 0x80:
        out += BYTE[value & 0x7F | 0x80]
        value >>= 7
    return out + BYTE[value]


def encode_varint32(value: int) -> bytes:
    """Encode a non-negative integer < 2**32 as a LEB128 varint."""
    if 0 <= value < 0x80:
        # Block entry headers and short lengths: one byte, no loop.
        return BYTE[value]
    if value < 0 or value >= 1 << 32:
        raise VarintError(f"varint32 out of range: {value}")
    return encode_varint64(value)


def decode_varint64(buf, offset: int = 0) -> tuple[int, int]:
    """Decode a varint starting at ``offset``.

    Returns ``(value, next_offset)``.  Raises :class:`VarintError` when
    the buffer is truncated or the encoding exceeds 64 bits.
    """
    result = 0
    shift = 0
    pos = offset
    n = len(buf)
    while True:
        if pos >= n:
            raise VarintError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result >= 1 << 64:
                raise VarintError("varint64 overflow")
            return result, pos
        shift += 7
        if shift >= 70:
            raise VarintError("varint too long")


def decode_varint32(buf, offset: int = 0) -> tuple[int, int]:
    """Decode a varint and verify it fits in 32 bits."""
    value, pos = decode_varint64(buf, offset)
    if value >= 1 << 32:
        raise VarintError(f"varint32 overflow: {value}")
    return value, pos


def varint_length(value: int) -> int:
    """Number of bytes :func:`encode_varint64` uses for ``value``."""
    if value < 0:
        raise VarintError(f"negative varint: {value}")
    length = 1
    while value >= 0x80:
        value >>= 7
        length += 1
    return length


def put_fixed32(value: int) -> bytes:
    """Little-endian fixed 32-bit encoding."""
    return _FIXED32.pack(value & 0xFFFFFFFF)


def put_fixed64(value: int) -> bytes:
    """Little-endian fixed 64-bit encoding."""
    return _FIXED64.pack(value & 0xFFFFFFFFFFFFFFFF)


def get_fixed32(buf, offset: int = 0) -> int:
    """Decode a little-endian fixed 32-bit integer at ``offset``."""
    return _FIXED32.unpack_from(buf, offset)[0]


def get_fixed64(buf, offset: int = 0) -> int:
    """Decode a little-endian fixed 64-bit integer at ``offset``."""
    return _FIXED64.unpack_from(buf, offset)[0]
