"""Bloom filter for SSTable point lookups.

bLSM-style bloom filters "avoid disk I/Os for the level which does not
contain the sought-after key" (paper §V); LevelDB gained the same via
its FilterPolicy.  We implement the double-hashing construction LevelDB
uses: one base hash, a derived delta, and k probes ``h + i*delta``.

The filter serialises to ``bit_array || k`` (last byte is the probe
count), so a reader needs no out-of-band parameters.

Compaction and flush hash every key they write and build a filter per
output table, so both run as lane kernels (:func:`bloom_hashes`,
:meth:`BloomFilterBuilder.finish`): many keys are packed into one big
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

__all__ = ["bloom_hash", "bloom_hashes", "BloomFilterBuilder", "BloomFilter"]


_WORDS = struct.Struct("<I").iter_unpack
_SEED = 0xBC9F1D34
_M = 0xC6A4A793

#: Below this many keys the scalar hash is as fast as the lanes.
_MIN_LANE_KEYS = 3


def bloom_hash(key: bytes, seed: int = _SEED) -> int:
    """Murmur-flavoured 32-bit hash (LevelDB's Hash())."""
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


def bloom_hashes(keys: list[bytes]) -> list[int]:
    """``[bloom_hash(k) for k in keys]``, computed for all keys at once.

    Keys of one length (every user key of a block, in the usual schema)
    are joined into one integer, one key per lane of 16 bytes (or the
    key length rounded up to 8): the lane's low word is the key's hash
    state, which starts equal in every lane.  Each 32-bit word of the
    keys is shifted down, masked and added to all states, and the
    multiply — a 33-bit sum times the 32-bit constant stays inside a
    128-bit lane — and the xor-shift are one operation each.  Mixed
    lengths and lists too short to pay for the packing take the scalar
    hash.
    """
    count = len(keys)
    if count < _MIN_LANE_KEYS:
        return [bloom_hash(k) for k in keys]
    n = len(keys[0])
    for key in keys:
        if len(key) != n:
            return [bloom_hash(k) for k in keys]
    lane = 16 if n <= 16 else (n + 7) & ~7
    pad = bytes(lane - 4)
    word = int.from_bytes((b"\xff\xff\xff\xff" + pad) * count, "little")
    start = ((_SEED ^ (n * _M)) & 0xFFFFFFFF).to_bytes(4, "little")
    h = int.from_bytes((start + pad) * count, "little")
    x = int.from_bytes(bytes(lane - n).join(keys), "little")
    rest = n & 3
    for shift in range(0, 8 * (n - rest), 32):
        h = ((h + ((x >> shift) & word)) * _M) & word
        h ^= (h >> 16) & word
    if rest:
        tail = int.from_bytes((b"\xff" * rest + bytes(lane - rest)) * count, "little")
        h = ((h + ((x >> (8 * (n - rest))) & tail)) * _M) & word
        h ^= (h >> 24) & word
    return memoryview(h.to_bytes(lane * count, "little")).cast("I")[:: lane // 4].tolist()


#: Multiplying a 64-bit lane of eight 0/1 bytes by this moves byte ``i``
#: to bit ``56 + i``; every partial product is a distinct power of two,
#: so nothing carries, within the lane or into the next.
_GATHER_BITS = 0x0102040810204080


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

    def add_hashes(self, hashes) -> None:
        """Add pre-computed :func:`bloom_hash` values.

        The pipelined compaction computes key hashes in its compute
        stage (S4) and ships them with each block artifact, so the
        write stage can build the table filter without re-touching
        keys; the flush hashes each data block's keys at once.
        """
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
        bytes are packed eight to a byte by one multiply.
        """
        n = len(self._hashes)
        k = self.k
        bits = max(64, n * self.bits_per_key)
        nbytes = (bits + 7) // 8
        bits = nbytes * 8
        if not n:
            return bytes(nbytes) + bytes((k,))
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
