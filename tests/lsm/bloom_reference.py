"""The straightforward filter build, kept as the test-side reference.

This is ``BloomFilterBuilder.finish`` as it stood before the lane
kernel of ``repro.lsm.bloom``: one ``%`` and one read-modify-write of
the bit array per probe of every key.  The engine's builder must emit
exactly these bytes (``test_bloom.py`` asserts it), so every filter the
new code writes matches a probe of the old reader and vice versa.
A block's filter piece is the same build over a different hash,
spelled out here as :func:`piece_hash_reference`.
"""

from __future__ import annotations

import zlib

from repro.lsm.bloom import bloom_hash


def filter_reference(hashes: list[int], bits_per_key: int) -> bytes:
    """The filter blob for these :func:`bloom_hash` values."""
    k = max(1, min(30, int(bits_per_key * 0.69)))
    bits = max(64, len(hashes) * bits_per_key)
    nbytes = (bits + 7) // 8
    bits = nbytes * 8
    arr = bytearray(nbytes)
    for h in hashes:
        delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
        for _ in range(k):
            pos = h % bits
            arr[pos // 8] |= 1 << (pos % 8)
            h = (h + delta) & 0xFFFFFFFF
    arr.append(k)
    return bytes(arr)


def filter_of_keys(user_keys, bits_per_key: int) -> bytes:
    """The filter blob a table holding ``user_keys`` must carry."""
    return filter_reference([bloom_hash(key) for key in user_keys], bits_per_key)


def piece_hash_reference(key: bytes) -> int:
    """CRC-32 through murmur3's fmix32, one step per line."""
    h = zlib.crc32(key)
    h ^= h >> 16
    h = (h * 0x85EBCA6B) % (1 << 32)
    h ^= h >> 13
    h = (h * 0xC2B2AE35) % (1 << 32)
    h ^= h >> 16
    return h


def piece_of_keys(user_keys, bits_per_key: int) -> bytes:
    """The filter piece a data block holding ``user_keys`` must carry
    (none with filters off)."""
    if bits_per_key <= 0:
        return b""
    return filter_reference([piece_hash_reference(key) for key in user_keys], bits_per_key)
