"""The straightforward ``lz77`` encoder, kept as the test-side reference.

This is the encoder as it stood before the kernel pass of
``repro.codec.compress``: one ``_hash4`` call per position, match
extension byte by byte.  The engine's encoder must emit exactly these
bytes for every input (``test_compress.py`` asserts it on a seeded
corpus and a hypothesis property), which is what keeps every table
written by the new code byte-identical to one written by the old.
"""

from __future__ import annotations

from repro.codec.varint import encode_varint32

_MIN_MATCH = 4
_MAX_MATCH = 64
_MAX_OFFSET = 65535
_HASH_BITS = 14
_HASH_SIZE = 1 << _HASH_BITS
_HASH_MULT = 0x1E35A7BD


def _hash4(data: bytes, pos: int) -> int:
    word = (
        data[pos]
        | data[pos + 1] << 8
        | data[pos + 2] << 16
        | data[pos + 3] << 24
    )
    return ((word * _HASH_MULT) & 0xFFFFFFFF) >> (32 - _HASH_BITS)


def _emit_literal(out: bytearray, data: bytes, start: int, end: int) -> None:
    while start < end:
        run = min(end - start, 0xFFFF + 1)
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
        chunk = min(length, _MAX_MATCH)
        # Avoid leaving a sub-minimum tail that the 1-byte form can't encode;
        # the 2-byte form handles any length 1..64 so a tail is fine here.
        out.append(0x02 | ((chunk - 1) << 2))
        out.append(offset & 0xFF)
        out.append(offset >> 8)
        length -= chunk


def lz77_compress_reference(data: bytes) -> bytes:
    """Compress ``data``; output starts with a varint of the input length."""
    n = len(data)
    out = bytearray(encode_varint32(n))
    if n < _MIN_MATCH + 1:
        if n:
            _emit_literal(out, data, 0, n)
        return bytes(out)

    table = [-1] * _HASH_SIZE
    pos = 0
    literal_start = 0
    limit = n - _MIN_MATCH
    while pos <= limit:
        h = _hash4(data, pos)
        cand = table[h]
        table[h] = pos
        if (
            cand >= 0
            and pos - cand <= _MAX_OFFSET
            and data[cand : cand + _MIN_MATCH] == data[pos : pos + _MIN_MATCH]
        ):
            # Extend the match forward.
            match_len = _MIN_MATCH
            max_len = min(_MAX_MATCH, n - pos)
            while (
                match_len < max_len
                and data[cand + match_len] == data[pos + match_len]
            ):
                match_len += 1
            if literal_start < pos:
                _emit_literal(out, data, literal_start, pos)
            _emit_copy(out, pos - cand, match_len)
            # Seed the table inside the match (sparsely, for speed).
            end = pos + match_len
            seed = pos + 1
            while seed < min(end, limit + 1):
                table[_hash4(data, seed)] = seed
                seed += 2
            pos = end
            literal_start = pos
        else:
            pos += 1
    if literal_start < n:
        _emit_literal(out, data, literal_start, n)
    return bytes(out)
