"""The straightforward filter build, kept as the test-side reference.

This is ``BloomFilterBuilder.finish`` as it stood before the lane
kernel of ``repro.lsm.bloom``: one ``%`` and one read-modify-write of
the bit array per probe of every key.  The engine's builder must emit
exactly these bytes (``test_bloom.py`` asserts it), so every filter the
new code writes matches a probe of the old reader and vice versa.
"""

from __future__ import annotations

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
