"""Streaming DB cursor.

``DB.scan`` needs merged, visibility-filtered iteration over the
memtable, every L0 table, and the deeper levels.  A :class:`Cursor`
captures the tree shape once (the version's search plan, with its
tables open) and then streams lazily — no materialisation of the
memtable, supports ``seek`` — while remaining valid even if a
background compaction deletes the underlying files mid-scan (open
tables keep their handles; the skiplist tolerates concurrent readers).

Visibility: the cursor pins a sequence number at creation (or uses the
caller's snapshot) so a long scan sees a consistent point-in-time view
regardless of concurrent writes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterator, Optional

from ..lsm.ikey import (
    KIND_DELETE,
    KIND_VALUE,
    MAX_SEQUENCE,
    decode_internal_key,
    encode_internal_key,
    internal_order,
)
from ..lsm.iterators import merge_iterators
from ..lsm.memtable import MemTable
from ..lsm.table_reader import Table

__all__ = ["Cursor"]


class Cursor:
    """Ordered, snapshot-consistent iteration over live user keys."""

    def __init__(
        self,
        memtables: list[MemTable],
        runs: list[tuple[list, list, list[Table]]],
        sequence: int,
    ) -> None:
        """``runs`` are :meth:`Version.search_plan`'s, newest first, as
        ``(smallest, largest, tables)`` with each file's table open."""
        self._memtables = memtables
        self._runs = runs
        self.sequence = sequence

    # ---------------------------------------------------------- sources
    def _sources(self, probe: Optional[bytes], reverse: bool) -> list[Iterator]:
        """One stream per memtable and per sorted run, newest first,
        from the internal key ``probe`` on (None: from the end), in
        ascending or descending internal order.

        A run's files hold disjoint, ordered ranges, so one bisect
        finds the file the stream starts in — going forward, the first
        whose largest key is at or past the probe; in reverse, the last
        whose smallest key is at or before it — and the rest of the run
        follows whole.
        """
        if reverse:
            sources = [mt.iter_reverse_from(probe) for mt in self._memtables]
        else:
            sources = [mt.iter_from(probe) for mt in self._memtables]
        order = None if probe is None else internal_order(probe)
        for smallest, largest, tables in self._runs:
            if reverse:
                i = len(tables) if order is None else bisect_right(smallest, order)
                if i:
                    rest = (t.iter_reverse_from(None) for t in reversed(tables[: i - 1]))
                    sources.append(
                        chain(tables[i - 1].iter_reverse_from(probe), chain.from_iterable(rest))
                    )
            else:
                i = 0 if order is None else bisect_left(largest, order)
                if i < len(tables):
                    sources.append(chain(tables[i].iter_from(probe), *tables[i + 1 :]))
        return sources

    # -------------------------------------------------------- iteration
    def items(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Live ``(user_key, value)`` pairs in ``[start, end)``."""
        # Seek to the first entry of `start` at any sequence: the newest
        # version sorts first in internal order.
        probe = None if start is None else encode_internal_key(start, MAX_SEQUENCE, KIND_VALUE)
        merged = merge_iterators(self._sources(probe, reverse=False))
        prev_user: Optional[bytes] = None
        for ikey, value in merged:
            user, seq, kind = decode_internal_key(ikey)
            if seq > self.sequence:
                continue  # newer than this cursor's view
            if user == prev_user:
                continue  # shadowed version
            prev_user = user
            if end is not None and user >= end:
                return
            if start is not None and user < start:
                continue
            if kind == KIND_DELETE:
                continue
            yield user, value

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        return self.items()

    def seek(self, start: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate live pairs with user key >= ``start``."""
        return self.items(start=start)

    def items_reverse(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Live pairs of the window [start, end) in *descending* order.

        Same window semantics as :meth:`items`, reversed traversal.
        """
        # Probe at (end, seq=0): the last internal key of user `end`, so
        # every version of every user <= end streams; `end` itself is
        # skipped below (the window is half-open).
        probe = None if end is None else encode_internal_key(end, 0, 0)
        merged = merge_iterators(self._sources(probe, reverse=True), reverse=True)
        # Reverse streams yield (user desc, seq asc): for each user key
        # the newest qualifying version is the *last* one seen before
        # the user changes.
        best: Optional[tuple[bytes, bytes, int]] = None  # (user, value, kind)
        for ikey, value in merged:
            user, seq, kind = decode_internal_key(ikey)
            if end is not None and user >= end:
                continue
            if start is not None and user < start:
                break
            if seq > self.sequence:
                continue
            if best is not None and best[0] != user and best[2] != KIND_DELETE:
                yield best[0], best[1]
            best = (user, value, kind)
        if best is not None and best[2] != KIND_DELETE:
            yield best[0], best[1]

    def count(self, start: Optional[bytes] = None, end: Optional[bytes] = None) -> int:
        """Number of live keys in the range (consumes a pass)."""
        return sum(1 for _ in self.items(start, end))
