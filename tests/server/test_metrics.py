"""Unit tests for server metrics and the latency histogram."""

import random

from repro.db import DB
from repro.devices import MemStorage
from repro.obs import LatencyHistogram
from repro.server import protocol as P
from repro.server.server import KVServer, server_section


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(50) == 0.0
        assert histogram.mean() == 0.0
        assert histogram.snapshot() == {"count": 0}

    def test_single_value(self):
        histogram = LatencyHistogram()
        histogram.record(0.010)
        assert histogram.count == 1
        # Log-bucketing: the estimate lands in the right bucket
        # (~10 % wide) and is clamped to the observed min/max.
        assert histogram.percentile(50) == 0.010
        assert histogram.vmin == histogram.vmax == 0.010

    def test_percentiles_are_ordered_and_bracketed(self):
        histogram = LatencyHistogram()
        rng = random.Random(7)
        values = [rng.uniform(1e-4, 1e-1) for _ in range(5000)]
        for value in values:
            histogram.record(value)
        p50 = histogram.percentile(50)
        p95 = histogram.percentile(95)
        p99 = histogram.percentile(99)
        assert min(values) <= p50 <= p95 <= p99 <= max(values)
        values.sort()
        exact_p50 = values[len(values) // 2]
        assert abs(p50 - exact_p50) / exact_p50 < 0.15  # bucket tolerance

    def test_extremes_clamp_into_buckets(self):
        histogram = LatencyHistogram()
        histogram.record(1e-9)   # below the 1 µs floor
        histogram.record(1e6)    # beyond the 1000 s ceiling
        assert histogram.count == 2
        # Estimates stay inside the bucket range; raw extremes are
        # preserved in min/max.
        assert histogram.percentile(100) >= 1e3
        assert histogram.vmax == 1e6
        assert histogram.vmin == 1e-9

    def test_snapshot_fields(self):
        histogram = LatencyHistogram()
        for _ in range(10):
            histogram.record(0.002)
        snap = histogram.snapshot()
        assert snap["count"] == 10
        for key in ("mean_ms", "min_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert snap[key] > 0


class TestServerMetrics:
    """The server's counts, kept in its registry (never started here)."""

    def test_record_and_snapshot(self):
        server = KVServer(DB(MemStorage()))
        try:
            server.record(P.OP_PUT, 0.001, bytes_in=100, bytes_out=20)
            server.record(P.OP_PUT, 0.002, bytes_in=120, bytes_out=20)
            server.record(
                P.OP_GET, 0.003, bytes_in=30, bytes_out=500, error=True
            )
            server.metrics.counter("server.stall_rejections").inc()
            server.metrics.counter("server.connections_opened").inc()
            registry = server.metrics.snapshot()
            snap = server_section(registry)
            assert snap["ops"]["PUT"]["requests"] == 2
            assert snap["ops"]["PUT"]["bytes_in"] == 220
            assert snap["ops"]["GET"]["errors"] == 1
            assert snap["stall_rejections"] == 1
            assert snap["active_connections"] == 1
            assert "DELETE" not in snap["ops"]  # untouched opcodes elided
            requests = [
                n for name, n in registry["counters"].items()
                if name.endswith(".requests")
            ]
            assert sum(requests) == 3
        finally:
            server.db.close()

    def test_render_mentions_every_active_opcode(self):
        server = KVServer(DB(MemStorage()))
        try:
            server.record(P.OP_SCAN, 0.004, bytes_in=10, bytes_out=9000)
            text = server.metrics.render()
            assert "server.op.SCAN.requests" in text
            assert "p99" in text
            assert "stall_rejections" in text
        finally:
            server.db.close()
