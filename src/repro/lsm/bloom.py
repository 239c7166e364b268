"""Bloom filter for SSTable point lookups.

bLSM-style bloom filters "avoid disk I/Os for the level which does not
contain the sought-after key" (paper §V); LevelDB gained the same via
its FilterPolicy.  We implement the double-hashing construction LevelDB
uses: one base hash, a derived delta, and k probes ``h + i*delta``.

The filter serialises to ``bit_array || k`` (last byte is the probe
count), so a reader needs no out-of-band parameters.
"""

from __future__ import annotations

import struct

__all__ = ["bloom_hash", "BloomFilterBuilder", "BloomFilter"]


_WORDS = struct.Struct("<I").iter_unpack


def bloom_hash(key: bytes, seed: int = 0xBC9F1D34) -> int:
    """Murmur-flavoured 32-bit hash (LevelDB's Hash())."""
    m = 0xC6A4A793
    n = len(key)
    h = (seed ^ (n * m)) & 0xFFFFFFFF
    rest = n & 3
    for (w,) in _WORDS(key[: n - rest] if rest else key):
        h = ((h + w) * m) & 0xFFFFFFFF
        h ^= h >> 16
    if rest:
        # The 1-3 trailing bytes, added as one little-endian number.
        h = ((h + int.from_bytes(key[n - rest :], "little")) * m) & 0xFFFFFFFF
        h ^= h >> 24
    return h


class BloomFilterBuilder:
    """Accumulates keys, then emits an immutable filter blob."""

    def __init__(self, bits_per_key: int = 10) -> None:
        if bits_per_key < 0:
            raise ValueError("bits_per_key must be >= 0")
        self.bits_per_key = bits_per_key
        # k = bits_per_key * ln(2), clamped like LevelDB.
        self.k = max(1, min(30, int(bits_per_key * 0.69)))
        self._hashes: list[int] = []

    def add(self, key: bytes) -> None:
        self._hashes.append(bloom_hash(key))

    def add_hash(self, h: int) -> None:
        """Add a pre-computed :func:`bloom_hash` value.

        The pipelined compaction computes key hashes in its compute
        stage (S4) and ships them with each block artifact, so the
        write stage can build the table filter without re-touching
        keys.
        """
        self._hashes.append(h & 0xFFFFFFFF)

    def __len__(self) -> int:
        return len(self._hashes)

    def finish(self) -> bytes:
        n = len(self._hashes)
        bits = max(64, n * self.bits_per_key)
        nbytes = (bits + 7) // 8
        bits = nbytes * 8
        arr = bytearray(nbytes)
        for h in self._hashes:
            delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
            for _ in range(self.k):
                pos = h % bits
                arr[pos // 8] |= 1 << (pos % 8)
                h = (h + delta) & 0xFFFFFFFF
        arr.append(self.k)
        return bytes(arr)


class BloomFilter:
    """Reader side: membership test over a serialized filter."""

    def __init__(self, blob: bytes) -> None:
        if len(blob) < 2:
            # Degenerate filter: treat as match-all (never lies negative).
            self._bits = 0
            self._data = b""
            self._k = 0
            return
        self._k = blob[-1]
        self._data = blob[:-1]
        self._bits = len(self._data) * 8

    def may_contain(self, key: bytes) -> bool:
        """False means *definitely absent*; True means maybe present."""
        if self._bits == 0 or self._k == 0 or self._k > 30:
            return True
        h = bloom_hash(key)
        delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
        for _ in range(self._k):
            pos = h % self._bits
            if not self._data[pos // 8] & (1 << (pos % 8)):
                return False
            h = (h + delta) & 0xFFFFFFFF
        return True
