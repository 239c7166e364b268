"""Internal key encoding and ordering.

Every entry in the memtable and in SSTables is keyed by an *internal
key*: the user key followed by an 8-byte little-endian trailer packing
``(sequence << 8) | kind``.  Ordering is user key ascending, then
sequence **descending** (newer first), then kind descending — exactly
LevelDB's comparator — so a scan positioned at ``(key, seq=MAX)`` finds
the newest visible version first.

``kind`` distinguishes live values from tombstones; deletions are
ordinary entries that shadow older values and are dropped during the
bottom-level compaction.
"""

from __future__ import annotations

from ..codec.varint import get_fixed64, put_fixed64

__all__ = [
    "KIND_DELETE",
    "KIND_VALUE",
    "MAX_SEQUENCE",
    "InternalKey",
    "pack_trailer",
    "unpack_trailer",
    "encode_internal_key",
    "decode_internal_key",
    "internal_compare",
    "internal_order",
    "lookup_key",
]

KIND_DELETE = 0
KIND_VALUE = 1
MAX_SEQUENCE = (1 << 56) - 1


def pack_trailer(sequence: int, kind: int) -> int:
    """Pack sequence and kind into the 64-bit trailer."""
    if not 0 <= sequence <= MAX_SEQUENCE:
        raise ValueError(f"sequence out of range: {sequence}")
    if kind not in (KIND_DELETE, KIND_VALUE):
        raise ValueError(f"bad kind: {kind}")
    return (sequence << 8) | kind


def unpack_trailer(trailer: int) -> tuple[int, int]:
    """Inverse of :func:`pack_trailer` → ``(sequence, kind)``."""
    return trailer >> 8, trailer & 0xFF


def encode_internal_key(user_key: bytes, sequence: int, kind: int) -> bytes:
    """Serialize an internal key."""
    return user_key + put_fixed64(pack_trailer(sequence, kind))


def decode_internal_key(ikey: bytes) -> tuple[bytes, int, int]:
    """Split an internal key into ``(user_key, sequence, kind)``."""
    if len(ikey) < 8:
        raise ValueError(f"internal key too short: {len(ikey)} bytes")
    trailer = int.from_bytes(ikey[-8:], "little")
    return ikey[:-8], trailer >> 8, trailer & 0xFF


def internal_compare(a: bytes, b: bytes) -> int:
    """Three-way comparison of encoded internal keys.

    User key ascending; on equal user keys the larger trailer (newer
    sequence) sorts *first*.
    """
    ua, ub = a[:-8], b[:-8]
    if ua < ub:
        return -1
    if ua > ub:
        return 1
    ta = get_fixed64(a, len(a) - 8)
    tb = get_fixed64(b, len(b) - 8)
    if ta > tb:
        return -1
    if ta < tb:
        return 1
    return 0


def internal_order(ikey: bytes) -> tuple[bytes, int]:
    """Sort key of an internal key: ``(user_key, -trailer)``.

    Tuples of these compare in C exactly as :func:`internal_compare`
    orders the keys (a user key that is a prefix of another sorts
    first, as bytewise), so ``bisect`` over a list of them finds an
    entry without a Python comparison per step.  :func:`repro.lsm.
    iterators.merge_iterators` orders its heap the same way.
    """
    return ikey[:-8], -int.from_bytes(ikey[-8:], "little")


class InternalKey:
    """A decoded internal key with rich comparisons.

    Sort order matches :func:`internal_compare`; usable directly as a
    sort key or heap element in merging iterators.
    """

    __slots__ = ("user_key", "sequence", "kind")

    def __init__(self, user_key: bytes, sequence: int, kind: int) -> None:
        self.user_key = user_key
        self.sequence = sequence
        self.kind = kind

    @classmethod
    def decode(cls, ikey: bytes) -> "InternalKey":
        return cls(*decode_internal_key(ikey))

    def encode(self) -> bytes:
        return encode_internal_key(self.user_key, self.sequence, self.kind)

    def _order(self):
        # sequence/kind negated: newer sorts first.
        return (self.user_key, -self.sequence, -self.kind)

    def __lt__(self, other: "InternalKey") -> bool:
        return self._order() < other._order()

    def __le__(self, other: "InternalKey") -> bool:
        return self._order() <= other._order()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InternalKey)
            and self.user_key == other.user_key
            and self.sequence == other.sequence
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.user_key, self.sequence, self.kind))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        k = "VAL" if self.kind == KIND_VALUE else "DEL"
        return f"InternalKey({self.user_key!r}, seq={self.sequence}, {k})"


def lookup_key(user_key: bytes, snapshot_sequence: int) -> bytes:
    """Encoded key positioned at the newest entry visible to a snapshot."""
    return encode_internal_key(user_key, snapshot_sequence, KIND_VALUE)
