"""LRU block cache.

Caches *decoded* data blocks keyed by ``(table_id, block_offset)`` so
repeated point lookups skip S1–S3 (read, checksum, decompress) and the
parse: each value is a :data:`repro.lsm.table_reader.DecodedBlock`, the
block's entries and their sort keys.  The capacity counts blocks, not
bytes.  What one block costs depends on how many entries it holds;
measured with ``sys.getsizeof`` over every object of a 4 KiB block of
16-byte user keys (CPython 3.11, 64-bit): 14.1 KiB for 36 entries of
100 B values (3.5× the block), 6.5 KiB for 5 entries of 1 KB values
(1.3×).  The default 1,024 blocks of 100 B values take about 14 MiB.
Thread-safe: the DB's read path may race with the background compaction
thread, and the cached blocks are shared read-only between threads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

from ..analysis.locksan import make_lock
from ..obs.registry import MetricsRegistry

__all__ = ["LRUCache"]


class LRUCache:
    """A plain LRU map that counts its hits, misses and evictions.

    The counts are ``cache.hits`` / ``cache.misses`` /
    ``cache.evictions`` in ``metrics`` (a
    :class:`repro.obs.MetricsRegistry`; the DB passes its own, so the
    cache shows up in the engine-wide snapshot), or in a registry of
    the cache's own when none is given.
    """

    def __init__(
        self, capacity: int, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._map: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = make_lock("lsm.cache")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        self._evictions = self.metrics.counter("cache.evictions")

    def __len__(self) -> int:
        with self._lock:
            return len(self._map)

    def get(self, key: Hashable, count_miss: bool = True) -> Optional[Any]:
        """The cached value or None.  ``count_miss=False`` leaves a miss
        out of the statistics (a probe whose caller will look again)."""
        with self._lock:
            try:
                value = self._map[key]
            except KeyError:
                if count_miss:
                    self._misses.inc()
                return None
            self._map.move_to_end(key)
            self._hits.inc()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._map:
                self._map.move_to_end(key)
            self._map[key] = value
            while len(self._map) > self.capacity:
                self._map.popitem(last=False)
                self._evictions.inc()

    def invalidate(self, key: Hashable) -> None:
        with self._lock:
            self._map.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._map.clear()
