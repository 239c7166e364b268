"""Unit tests for the shared metrics registry (repro.obs)."""

import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    LatencyHistogram,
    MetricsRegistry,
    merge_histogram_snapshots,
    merge_shard_snapshots,
)


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.add(-1.5)
        assert gauge.value == 2.0


class TestHistogram:
    def test_empty(self):
        histogram = Histogram()
        assert histogram.percentile(50) == 0.0
        assert histogram.mean() == 0.0
        assert histogram.snapshot() == {"count": 0}

    def test_percentiles_bracketed(self):
        histogram = Histogram()
        for i in range(1, 101):
            histogram.record(i / 1000.0)
        p50, p99 = histogram.percentile(50), histogram.percentile(99)
        assert 0.001 <= p50 <= p99 <= 0.100
        assert abs(p50 - 0.050) / 0.050 < 0.15  # bucket tolerance

    def test_custom_grid(self):
        # Byte-size histogram: 1 B .. 1 GiB-ish.
        histogram = Histogram(lo=1.0, hi=1e9, buckets_per_decade=8)
        histogram.record(4096)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == 4096

    def test_latency_histogram_ms_snapshot(self):
        histogram = LatencyHistogram()
        histogram.record(0.002)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["min_ms"] == pytest.approx(2.0)
        assert histogram.vmin == histogram.vmax == 0.002
        assert histogram.total == pytest.approx(0.002)


class TestMetricsRegistry:
    def test_same_name_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x")

    def test_latency_histogram_is_histogram_subkind(self):
        registry = MetricsRegistry()
        registry.latency_histogram("lat")
        # A plain-histogram request for the same name must not silently
        # hand back the ms-keyed variant.
        with pytest.raises(ValueError):
            registry.counter("lat")

    def test_snapshot_groups_by_kind(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 7}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1

    def test_render_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h")
        text = registry.render()
        assert "c" in text and "h" in text and "(empty)" in text

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        n_threads, n_incs = 8, 5000

        def work():
            counter = registry.counter("hot")
            histogram = registry.histogram("lat")
            for _ in range(n_incs):
                counter.inc()
                histogram.record(0.001)

        threads = [
            threading.Thread(target=work, name=f"metrics-worker-{i}")
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("hot").value == n_threads * n_incs
        assert registry.histogram("lat").count == n_threads * n_incs


class TestHistogramSnapshotBuckets:
    """PR 7: snapshots carry cumulative buckets + sum (Prometheus)."""

    def test_empty_snapshot_shape_unchanged(self):
        assert Histogram().snapshot() == {"count": 0}

    def test_sum_and_cumulative_buckets(self):
        h = Histogram()
        for v in (0.001, 0.01, 0.01, 0.1):
            h.record(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(0.121)
        buckets = snap["buckets"]
        # Bucket uppers ascend, cumulative counts are monotone, and
        # the last cumulative count equals the total.
        uppers = [le for le, _ in buckets]
        cums = [c for _, c in buckets]
        assert uppers == sorted(uppers)
        assert cums == sorted(cums)
        assert cums[-1] == 4

    def test_latency_snapshot_buckets_in_ms(self):
        h = LatencyHistogram()
        h.record(0.002)
        snap = h.snapshot()
        assert snap["sum_ms"] == pytest.approx(2.0, rel=0.01)
        (bucket,) = snap["buckets_ms"]
        le_ms, cum = bucket
        assert cum == 1 and 1.0 < le_ms < 4.0


class TestMergeHistogramSnapshots:
    def test_merge_two(self):
        a, b = Histogram(), Histogram()
        for v in (0.001, 0.002):
            a.record(v)
        for v in (0.1, 0.2, 0.4):
            b.record(v)
        merged = merge_histogram_snapshots([a.snapshot(), b.snapshot()])
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(0.703)
        assert merged["min"] == pytest.approx(0.001)
        assert merged["max"] == pytest.approx(0.4)
        # p50 of {1ms,2ms,100ms,200ms,400ms} lies in the upper group.
        assert 0.05 < merged["p50"] <= 0.4

    def test_merge_empties(self):
        assert merge_histogram_snapshots([]) == {"count": 0}
        assert merge_histogram_snapshots(
            [{"count": 0}, {"count": 0}]
        ) == {"count": 0}

    def test_merge_ms_variant(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.001)
        b.record(0.003)
        merged = merge_histogram_snapshots([a.snapshot(), b.snapshot()])
        assert merged["count"] == 2
        assert merged["sum_ms"] == pytest.approx(4.0, rel=0.01)
        assert merged["buckets_ms"][-1][1] == 2

    def test_merge_percentiles_close_to_pooled(self):
        import random

        rng = random.Random(7)
        values = [rng.uniform(0.001, 1.0) for _ in range(2000)]
        parts = [Histogram(), Histogram(), Histogram()]
        for i, v in enumerate(values):
            parts[i % 3].record(v)
        pooled = Histogram()
        for v in values:
            pooled.record(v)
        merged = merge_histogram_snapshots([p.snapshot() for p in parts])
        for p in ("p50", "p95", "p99"):
            assert merged[p] == pytest.approx(
                pooled.snapshot()[p], rel=0.15
            )


class TestMergeShardSnapshotsHistograms:
    def test_histograms_rolled_up(self):
        shard0, shard1 = MetricsRegistry(), MetricsRegistry()
        shard0.histogram("db.flush_seconds").record(0.01)
        shard1.histogram("db.flush_seconds").record(0.04)
        cluster = MetricsRegistry()
        cluster.counter("cluster.jobs").inc(3)
        merged = merge_shard_snapshots(
            cluster.snapshot(), [shard0.snapshot(), shard1.snapshot()]
        )
        # The cluster's own registry rides along unprefixed.
        assert merged["counters"]["cluster.jobs"] == 3
        # Per-shard series keep their prefix...
        assert (
            merged["histograms"]["cluster.shard0.db.flush_seconds"]["count"]
            == 1
        )
        # ...and the bare name is the cross-shard rollup.
        rollup = merged["histograms"]["db.flush_seconds"]
        assert rollup["count"] == 2
        assert rollup["sum"] == pytest.approx(0.05)
