"""Tests for the LRU block cache."""

import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lsm.cache import LRUCache


class TestLRU:
    def test_put_get(self):
        c = LRUCache(4)
        c.put("a", 1)
        assert c.get("a") == 1

    def test_miss_returns_none(self):
        c = LRUCache(4)
        assert c.get("missing") is None
        assert c.metrics.counter("cache.misses").value == 1

    def test_eviction_order(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)  # evicts a
        assert c.get("a") is None
        assert c.get("b") == 2
        assert c.get("c") == 3
        assert c.metrics.counter("cache.evictions").value == 1

    def test_get_refreshes_recency(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")  # refresh a
        c.put("c", 3)  # evicts b
        assert c.get("a") == 1
        assert c.get("b") is None

    def test_put_overwrites(self):
        c = LRUCache(2)
        c.put("a", 1)
        c.put("a", 2)
        assert c.get("a") == 2
        assert len(c) == 1

    def test_zero_capacity_disables(self):
        c = LRUCache(0)
        c.put("a", 1)
        assert c.get("a") is None
        assert len(c) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_invalidate(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.invalidate("a")
        assert c.get("a") is None
        c.invalidate("a")  # idempotent

    def test_clear(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.clear()
        assert len(c) == 0

    def test_hit_rate(self):
        c = LRUCache(4)
        c.put("a", 1)
        c.get("a")
        c.get("b")
        counters = c.metrics.snapshot()["counters"]
        assert counters["cache.hits"] == counters["cache.misses"] == 1
        assert LRUCache(4).metrics.snapshot()["counters"] == {
            "cache.evictions": 0, "cache.hits": 0, "cache.misses": 0,
        }

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 100)), max_size=200
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_capacity_never_exceeded(self, ops, capacity):
        c = LRUCache(capacity)
        for key, value in ops:
            c.put(key, value)
            assert len(c) <= capacity

    def test_thread_safety_smoke(self):
        c = LRUCache(64)
        errors = []

        def worker(base):
            try:
                for i in range(500):
                    c.put((base, i % 100), i)
                    c.get((base, (i * 7) % 100))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,), name=f"cache-worker-{t}")
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(c) <= 64
