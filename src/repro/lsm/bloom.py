"""Bloom filter for SSTable point lookups.

bLSM-style bloom filters "avoid disk I/Os for the level which does not
contain the sought-after key" (paper §V); LevelDB gained the same via
its FilterPolicy.  We implement the double-hashing construction LevelDB
uses: one base hash, a derived delta, and k probes ``h + i*delta``.

The filter serialises to ``bit_array || k`` (last byte is the probe
count), so a reader needs no out-of-band parameters.  A table carries
one such blob per data block, a *piece* over that block's user keys
(:func:`block_filter`), so a compaction that copies a block as stored
copies its piece with it.  A piece hashes with :func:`piece_hash` —
CRC-32, in C, through murmur3's 32-bit finalizer — which passes about
1 % of absent 16-byte decimal keys at 10 bits per key.  LevelDB's
:func:`bloom_hash` passes 12 % in a piece of 35 such keys (keys that
differ only in their last byte crowd onto a few positions); it,
:meth:`BloomFilterBuilder.add` and :class:`BloomFilter` are used by no
table, and remain only because ``perf/layers.py`` times them.

The flush and a compaction build a piece for every block they cut, so
both steps run as lane kernels (:func:`piece_hashes`,
:meth:`BloomFilterBuilder.finish`): many values are packed into one big
integer, one fixed-width lane each, and every arithmetic step of the
scalar code is one big-integer operation over all lanes.  A lane is
wide enough that no intermediate value carries into its neighbour, and
a mask after every step that could shift bits across a lane edge keeps
each lane's 32-bit result exact.  ``tests/lsm/test_bloom.py`` pins both
against the plain loops, bit for bit.
"""

from __future__ import annotations

import struct
from array import array
from zlib import crc32

__all__ = [
    "bloom_hash",
    "piece_hash",
    "piece_hashes",
    "block_filter",
    "probe",
    "BloomFilterBuilder",
    "BloomFilter",
]


_WORDS = struct.Struct("<I").iter_unpack
_SEED = 0xBC9F1D34
_M = 0xC6A4A793
_FMIX1 = 0x85EBCA6B
_FMIX2 = 0xC2B2AE35

#: Below this many keys the scalar hash and filter build beat the
#: lanes' fixed cost (a block of four 1 KB entries: a filter in 3.8 µs
#: against 7.0 µs).
_MIN_LANE_KEYS = 8


def bloom_hash(key: bytes, seed: int = _SEED) -> int:
    """Murmur-flavoured 32-bit hash (LevelDB's Hash()); no table uses
    it, kept only for ``perf/layers.py``'s ``lsm.bloom_check_us``."""
    m = _M
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


def piece_hash(key: bytes) -> int:
    """A filter piece's 32-bit hash: ``zlib.crc32`` of the key, mixed by
    murmur3's finalizer (fmix32) so every input bit reaches every
    output bit."""
    h = crc32(key)
    h ^= h >> 16
    h = (h * _FMIX1) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * _FMIX2) & 0xFFFFFFFF
    return h ^ (h >> 16)


def piece_hashes(keys: list[bytes]) -> list[int]:
    """``[piece_hash(k) for k in keys]``, the finalizer run for all keys
    at once: one CRC per key, each in the low word of a 64-bit lane,
    where a 32-bit value times a 32-bit constant fits."""
    count = len(keys)
    if count < _MIN_LANE_KEYS:
        return [piece_hash(k) for k in keys]
    lanes = bytearray(8 * count)
    memoryview(lanes).cast("I")[::2] = array("I", map(crc32, keys))
    h = int.from_bytes(lanes, "little")
    word = int.from_bytes(b"\xff\xff\xff\xff\x00\x00\x00\x00" * count, "little")
    h ^= (h >> 16) & word
    h = (h * _FMIX1) & word
    h ^= (h >> 13) & word
    h = (h * _FMIX2) & word
    h ^= (h >> 16) & word
    return memoryview(h.to_bytes(8 * count, "little")).cast("I")[::2].tolist()


#: Multiplying a 64-bit lane of eight 0/1 bytes by this moves byte ``i``
#: to bit ``56 + i``; every partial product is a distinct power of two,
#: so nothing carries, within the lane or into the next.
_GATHER_BITS = 0x0102040810204080


class BloomFilterBuilder:
    """Accumulates key hashes, then emits an immutable filter blob.
    :meth:`add` (:func:`bloom_hash`) is kept only for ``perf/layers.py``."""

    def __init__(self, bits_per_key: int = 10) -> None:
        if bits_per_key < 0:
            raise ValueError("bits_per_key must be >= 0")
        self.bits_per_key = bits_per_key
        # k = bits_per_key * ln(2), clamped like LevelDB.
        self.k = max(1, min(30, int(bits_per_key * 0.69)))
        self._hashes: list[int] = []

    def add(self, key: bytes) -> None:
        self._hashes.append(bloom_hash(key))

    def add_hashes(self, hashes) -> None:
        """Add pre-computed hash values (a block's keys, hashed at once
        by :func:`piece_hashes`)."""
        self._hashes += hashes

    def __len__(self) -> int:
        return len(self._hashes)

    def finish(self) -> bytes:
        """The filter blob: ``k`` probes per key, then the byte ``k``.

        Probe ``i`` of a key with hash ``h`` sets bit ``(h + i * delta)
        mod 2^32 mod bits``, ``delta`` being ``h`` rotated right by 17.
        All keys' probes of one round are computed at once, one key per
        128-bit lane.  The ``mod bits`` is an exact Barrett reduction:
        with ``shift = 32 + ceil(log2 bits)`` and ``r = ceil(2^shift /
        bits)``, ``(h * r) >> shift`` is ``h // bits`` for every 32-bit
        ``h`` (Granlund and Montgomery), and ``h * r`` stays below 2^65.
        Each probed bit is marked as one byte of a bytearray, and the
        bytes are packed eight to a byte by one multiply.  A few keys
        (one small block's) take the plain loop, each bit or-ed into
        one integer.
        """
        n = len(self._hashes)
        k = self.k
        bits = max(64, n * self.bits_per_key)
        nbytes = (bits + 7) // 8
        bits = nbytes * 8
        if n < _MIN_LANE_KEYS:
            acc = 0
            for h in self._hashes:
                delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
                for _ in range(k):
                    acc |= 1 << (h % bits)
                    h = (h + delta) & 0xFFFFFFFF
            return acc.to_bytes(nbytes, "little") + bytes((k,))
        lanes = bytearray(16 * n)
        memoryview(lanes).cast("I")[::4] = array("I", self._hashes)
        h = int.from_bytes(lanes, "little")
        word = int.from_bytes((b"\xff\xff\xff\xff" + bytes(12)) * n, "little")
        delta = ((h >> 17) | (h << 15)) & word
        shift = 32 + (bits - 1).bit_length()
        r = -(-(1 << shift) // bits)
        positions: list[int] = []
        for _ in range(k):
            pos = h - (((h * r) >> shift) & word) * bits
            positions += memoryview(pos.to_bytes(16 * n, "little")).cast("Q")[::2]
            h = (h + delta) & word
        marks = bytearray(bits)
        for p in positions:
            marks[p] = 1
        packed = (int.from_bytes(marks, "little") * _GATHER_BITS).to_bytes(
            bits + 8, "little"
        )
        return packed[7::8][:nbytes] + bytes((k,))


def block_filter(user_keys: list[bytes], bits_per_key: int) -> bytes:
    """One data block's filter piece over its user keys; ``b""`` (which
    matches every key) when ``bits_per_key`` is 0 or there is no key."""
    if bits_per_key <= 0 or not user_keys:
        return b""
    builder = BloomFilterBuilder(bits_per_key)
    builder.add_hashes(piece_hashes(user_keys))
    return builder.finish()


def probe(blob: bytes, h: int) -> bool:
    """Probe a serialized filter for a key hashing to ``h``: False means
    *definitely absent*, True maybe present.  A blob shorter than two
    bytes, or one whose probe count is out of range, is degenerate and
    matches every key."""
    k = blob[-1] if len(blob) > 1 else 0
    if not 0 < k <= 30:
        return True
    bits = (len(blob) - 1) * 8
    delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
    for _ in range(k):
        pos = h % bits
        if not blob[pos >> 3] & (1 << (pos & 7)):
            return False
        h = (h + delta) & 0xFFFFFFFF
    return True


class BloomFilter:
    """Reader side of a filter over :func:`bloom_hash` keys; no table
    uses it, kept only for ``perf/layers.py``'s ``lsm.bloom_check_us``."""

    def __init__(self, blob: bytes) -> None:
        self._blob = bytes(blob)

    def may_contain(self, key: bytes) -> bool:
        """False means *definitely absent*; True means maybe present."""
        return probe(self._blob, bloom_hash(key))
