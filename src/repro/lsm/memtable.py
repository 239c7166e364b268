"""Skiplist memtable (the C0 component).

A probabilistic skiplist ordered by :func:`repro.lsm.ikey.internal_compare`.
Insertions are O(log n) expected; iteration is an ordered walk of level
0.  The memtable owns no locking — the DB serialises writers — but
concurrent *readers* during an insert are safe for the engine's usage
(new nodes are fully initialised before being linked, and links are
updated bottom-up, the classic LevelDB argument).

Entry payload is stored as ``(internal_key, value)``; tombstones carry
an empty value with ``KIND_DELETE`` in the key trailer.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from .ikey import (
    KIND_DELETE,
    KIND_VALUE,
    MAX_SEQUENCE,
    decode_internal_key,
    encode_internal_key,
    internal_compare,
)

__all__ = ["MemTable", "GetResult"]

_MAX_HEIGHT = 12
_BRANCHING = 4


class _Node:
    __slots__ = ("ikey", "value", "next")

    def __init__(self, ikey: Optional[bytes], value: bytes, height: int) -> None:
        self.ikey = ikey
        self.value = value
        self.next: list[Optional[_Node]] = [None] * height


class GetResult:
    """Outcome of a memtable lookup."""

    __slots__ = ("found", "deleted", "value")

    def __init__(self, found: bool, deleted: bool, value: Optional[bytes]) -> None:
        self.found = found  # the user key has an entry visible at the snapshot
        self.deleted = deleted  # ... and that entry is a tombstone
        self.value = value

    NOT_FOUND: "GetResult"


GetResult.NOT_FOUND = GetResult(False, False, None)


class MemTable:
    """In-memory sorted buffer of recent writes."""

    def __init__(self, seed: int = 0) -> None:
        self._head = _Node(None, b"", _MAX_HEIGHT)
        self._height = 1
        self._rng = random.Random(seed)
        self._approx_bytes = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def approximate_bytes(self) -> int:
        """Rough heap footprint used for the flush trigger."""
        return self._approx_bytes

    def _random_height(self) -> int:
        height = 1
        while height < _MAX_HEIGHT and self._rng.randrange(_BRANCHING) == 0:
            height += 1
        return height

    def _find_greater_or_equal(
        self, ikey: bytes, prev: Optional[list[_Node]] = None
    ) -> Optional[_Node]:
        node = self._head
        level = self._height - 1
        while True:
            nxt = node.next[level]
            if nxt is not None and internal_compare(nxt.ikey, ikey) < 0:
                node = nxt
            else:
                if prev is not None:
                    prev[level] = node
                if level == 0:
                    return nxt
                level -= 1

    def add(self, sequence: int, kind: int, user_key: bytes, value: bytes) -> None:
        """Insert an entry; (user_key, sequence) pairs must be unique."""
        ikey = encode_internal_key(user_key, sequence, kind)
        prev: list[_Node] = [self._head] * _MAX_HEIGHT
        self._find_greater_or_equal(ikey, prev)
        height = self._random_height()
        if height > self._height:
            for level in range(self._height, height):
                prev[level] = self._head
            self._height = height
        node = _Node(ikey, value, height)
        for level in range(height):
            node.next[level] = prev[level].next[level]
            prev[level].next[level] = node
        self._count += 1
        self._approx_bytes += len(ikey) + len(value) + 48  # node overhead

    def put(self, sequence: int, user_key: bytes, value: bytes) -> None:
        """Insert a live value."""
        self.add(sequence, KIND_VALUE, user_key, value)

    def delete(self, sequence: int, user_key: bytes) -> None:
        """Insert a tombstone."""
        self.add(sequence, KIND_DELETE, user_key, b"")

    def get(
        self,
        user_key: bytes,
        snapshot: int = MAX_SEQUENCE,
        probe: Optional[bytes] = None,
    ) -> GetResult:
        """Newest entry for ``user_key`` visible at ``snapshot``.

        ``probe`` is ``lookup_key(user_key, snapshot)`` where the caller
        already holds it (the DB read path encodes it once per GET).
        """
        if probe is None:
            probe = encode_internal_key(user_key, snapshot, KIND_VALUE)
        node = self._find_greater_or_equal(probe)
        if node is None:
            return GetResult.NOT_FOUND
        ukey, _seq, kind = decode_internal_key(node.ikey)
        if ukey != user_key:
            return GetResult.NOT_FOUND
        if kind == KIND_DELETE:
            return GetResult(True, True, None)
        return GetResult(True, False, node.value)

    def iter_from(self, ikey: Optional[bytes] = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(internal_key, value)`` with internal key >= ``ikey``
        (all of them for None), in internal-key order."""
        node = self._head.next[0] if ikey is None else self._find_greater_or_equal(ikey)
        while node is not None:
            yield node.ikey, node.value
            node = node.next[0]

    __iter__ = iter_from

    def iter_reverse_from(self, ikey: Optional[bytes] = None) -> Iterator[tuple[bytes, bytes]]:
        """Entries with internal key <= ``ikey`` (all of them for None),
        descending.

        The skiplist has no back pointers; a reverse scan materialises
        the (memtable-bounded) level-0 walk and reverses it.  The copy
        is capped by ``memtable_bytes``, so this stays O(buffer), not
        O(database).
        """
        out = []
        node = self._head.next[0]
        while node is not None and (
            ikey is None or internal_compare(node.ikey, ikey) <= 0
        ):
            out.append((node.ikey, node.value))
            node = node.next[0]
        return reversed(out)

    def smallest_key(self) -> Optional[bytes]:
        node = self._head.next[0]
        return None if node is None else node.ikey

    def largest_key(self) -> Optional[bytes]:
        # O(n) walk at level 0 is fine: called once per flush.
        node = self._head.next[0]
        if node is None:
            return None
        while node.next[0] is not None:
            node = node.next[0]
        return node.ikey
