"""Iterator combinators over ``(internal_key, value)`` streams.

The engine's read path and compaction input both consume ordered
streams of internal-key entries.  Sources are plain Python iterators
(memtable, Table, Block all yield in internal order); this module
provides:

* :func:`merge_iterators` — heap-based k-way merge preserving internal
  order across sources, ascending or descending, with *source
  priority* for equal internal keys (never happens for distinct
  sequences, but keeps ties deterministic).
* :func:`visible_entries` — collapse a merged stream to the newest
  entry per user key visible at a snapshot, dropping shadowed versions.
* :func:`drop_tombstones` — additionally remove deletion markers
  (legal only at the bottom level, where nothing older can exist).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Optional

from .ikey import KIND_DELETE, decode_internal_key

__all__ = [
    "drop_tombstones",
    "merge_iterators",
    "visible_entries",
]

Entry = tuple[bytes, bytes]


def _entry_order(entry: Entry) -> tuple[bytes, int]:
    """An entry's :func:`~repro.lsm.ikey.internal_order`, inlined."""
    ikey = entry[0]
    return ikey[:-8], -int.from_bytes(ikey[-8:], "little")


def merge_iterators(
    sources: Iterable[Iterator[Entry]], reverse: bool = False
) -> Iterator[Entry]:
    """K-way merge of internally-ordered entry streams.

    Earlier sources win ties, so pass newer components first
    (memtable, then L0 newest→oldest, then L1, ...).  With ``reverse``
    every source yields in *descending* internal order, and so does
    the merge.
    """
    if reverse:
        yield from heapq.merge(*sources, key=_entry_order, reverse=True)
        return
    # Heap items order themselves as plain tuples: user key ascending,
    # then the negated trailer (newer sequence first), then source
    # priority, which is unique, so entries are never compared.
    trailer_of = int.from_bytes
    heap: list[tuple[bytes, int, int, Entry, Iterator[Entry]]] = []
    for priority, src in enumerate(sources):
        it = iter(src)
        first = next(it, None)
        if first is not None:
            ikey = first[0]
            heap.append((ikey[:-8], -trailer_of(ikey[-8:], "little"), priority, first, it))
    heapq.heapify(heap)
    while len(heap) > 1:
        _, _, priority, entry, it = heap[0]
        yield entry
        nxt = next(it, None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            ikey = nxt[0]
            heapq.heapreplace(
                heap, (ikey[:-8], -trailer_of(ikey[-8:], "little"), priority, nxt, it)
            )
    if heap:
        # One source left: nothing to compare with.
        _, _, _, entry, it = heap[0]
        yield entry
        yield from it


def visible_entries(
    merged: Iterator[Entry], snapshot: Optional[int] = None
) -> Iterator[Entry]:
    """Newest visible entry per user key (tombstones still emitted).

    Entries with sequence > ``snapshot`` are invisible; among the rest,
    only the first (newest) per user key survives.
    """
    current_user: Optional[bytes] = None
    for ikey, value in merged:
        user, seq, _kind = decode_internal_key(ikey)
        if snapshot is not None and seq > snapshot:
            continue
        if user == current_user:
            continue  # older, shadowed version
        current_user = user
        yield ikey, value


def drop_tombstones(entries: Iterator[Entry]) -> Iterator[Entry]:
    """Remove deletion markers from a visible-entries stream."""
    for ikey, value in entries:
        _, _, kind = decode_internal_key(ikey)
        if kind != KIND_DELETE:
            yield ikey, value
