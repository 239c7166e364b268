"""Thread-safe named metrics: counters, gauges, log-bucketed histograms.

This generalises the server's former private ``LatencyHistogram`` into
an engine-wide facility (the role RocksDB's ``Statistics`` plays): any
layer — WAL, block cache, storage wrappers, compaction, the network
server — records into one :class:`MetricsRegistry` under dotted names
(``wal.bytes``, ``cache.hits``, ``io.mem.read.bytes``, …), and one
``snapshot()`` call returns a consistent, JSON-serialisable view of
everything.  See ``docs/OBSERVABILITY.md`` for the name catalogue.

Design notes
============

* **Histogram** buckets are logarithmic (default ~24 per decade from
  1 µs to 1000 s, matching the old server histogram): recording is
  O(1) and percentile estimation interpolates inside the winning
  bucket.  The bucket grid is configurable per histogram so the same
  type can hold latencies, byte sizes, or queue depths.
* **Thread safety**: every metric carries its own small lock (CPython's
  ``+=`` on an attribute is *not* atomic across threads), and the
  registry locks only around name→metric creation, so recording on two
  different metrics never contends.
* **Units** are the recorder's business; histograms store raw floats.
  :class:`LatencyHistogram` is the seconds-in/milliseconds-out variant
  the server wire format expects.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator, Optional

from ..analysis.locksan import make_lock
from ..analysis.racesan import shared_state

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "MetricsRegistry",
    "merge_histogram_snapshots",
    "merge_shard_snapshots",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = make_lock("obs.counter")

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time float that may move both ways."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = make_lock("obs.gauge")

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


def _bucket_percentile(
    buckets: list, count: int, vmin: float, vmax: float, p: float
) -> float:
    """Percentile estimate from cumulative ``[le, cum]`` bucket pairs.

    The same interpolation :meth:`Histogram.percentile` performs on the
    live counts, but operating on a snapshot's bucket list — so merged
    snapshots (:func:`merge_histogram_snapshots`) can re-derive
    cluster-wide percentiles.
    """
    if count <= 0:
        return 0.0
    rank = p / 100.0 * count
    prev_le: Optional[float] = None
    prev_cum = 0
    for le, cum in buckets:
        if cum >= rank:
            lo = prev_le if prev_le is not None else vmin
            fraction = (rank - prev_cum) / (cum - prev_cum)
            est = lo + (le - lo) * fraction
            return min(max(est, vmin), vmax)
        prev_le, prev_cum = le, cum
    return vmax


class Histogram:
    """Log-bucketed histogram of positive floats with percentiles.

    ``lo``/``hi`` bound the bucket grid (values outside are clamped
    into the edge buckets; raw extremes are preserved in min/max), and
    ``buckets_per_decade`` sets resolution (~10 % wide at 24/decade).
    """

    __slots__ = (
        "counts", "count", "total", "vmin", "vmax",
        "_lo", "_bpd", "_nbuckets", "_lock",
    )

    def __init__(
        self,
        lo: float = 1e-6,
        hi: float = 1e3,
        buckets_per_decade: int = 24,
    ) -> None:
        if lo <= 0 or hi <= lo:
            raise ValueError("need 0 < lo < hi")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self._lo = lo
        self._bpd = buckets_per_decade
        self._nbuckets = int(buckets_per_decade * math.log10(hi / lo)) + 2
        self.counts = [0] * self._nbuckets
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = 0.0
        self._lock = make_lock("obs.histogram")

    def _bucket(self, value: float) -> int:
        if value <= self._lo:
            return 0
        index = int(math.log10(value / self._lo) * self._bpd) + 1
        return min(index, self._nbuckets - 1)

    def _bucket_upper(self, index: int) -> float:
        if index <= 0:
            return self._lo
        return self._lo * 10 ** (index / self._bpd)

    def record(self, value: float) -> None:
        with self._lock:
            self.counts[self._bucket(value)] += 1
            self.count += 1
            self.total += value
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` in [0, 100]."""
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = p / 100.0 * self.count
            seen = 0
            for index, n in enumerate(self.counts):
                if n == 0:
                    continue
                if seen + n >= rank:
                    lo = self._bucket_upper(index - 1)
                    hi = self._bucket_upper(index)
                    fraction = (rank - seen) / n
                    est = lo + (hi - lo) * fraction
                    return min(max(est, self.vmin), self.vmax)
                seen += n
            return self.vmax

    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """Summary dict in the histogram's raw units.

        Besides the summary statistics, the snapshot carries the
        cumulative ``sum`` and the non-empty ``buckets`` as
        ``[upper_bound, cumulative_count]`` pairs, so a scraper can
        derive rates/averages between two snapshots and a Prometheus
        exposition can render ``_bucket``/``_count``/``_sum`` series
        (see :mod:`repro.obs.export`).  The empty shape stays
        ``{"count": 0}`` for backward compatibility.
        """
        if self.count == 0:
            return {"count": 0}
        with self._lock:
            counts = list(self.counts)
            count = self.count
            total = self.total
            vmin = self.vmin
            vmax = self.vmax
        buckets: list[list] = []
        cumulative = 0
        for index, n in enumerate(counts):
            if n == 0:
                continue
            cumulative += n
            buckets.append([self._bucket_upper(index), cumulative])
        snap = {
            "count": count,
            "sum": total,
            "mean": total / count,
            "min": vmin,
            "max": vmax,
        }
        for p in (50, 95, 99):
            snap[f"p{p}"] = _bucket_percentile(buckets, count, vmin, vmax, p)
        snap["buckets"] = buckets
        return snap


class LatencyHistogram(Histogram):
    """Seconds-in, milliseconds-out histogram (the STATS wire shape).

    1 µs–1000 s grid, 24 buckets per decade, and a ``snapshot()`` whose
    keys carry the ``_ms`` suffix the wire format promises.  Values are
    recorded in seconds, so ``total`` / ``vmin`` / ``vmax`` are seconds.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(lo=1e-6, hi=1e3, buckets_per_decade=24)

    def snapshot(self) -> dict:
        """Summary dict (latencies in milliseconds, for STATS/JSON)."""
        if self.count == 0:
            return {"count": 0}
        base = super().snapshot()
        return {
            "count": base["count"],
            "mean_ms": base["mean"] * 1e3,
            "min_ms": base["min"] * 1e3,
            "max_ms": base["max"] * 1e3,
            "p50_ms": base["p50"] * 1e3,
            "p95_ms": base["p95"] * 1e3,
            "p99_ms": base["p99"] * 1e3,
            "sum_ms": base["sum"] * 1e3,
            "buckets_ms": [[le * 1e3, cum] for le, cum in base["buckets"]],
        }


_KINDS = {"counter": Counter, "gauge": Gauge}


class MetricsRegistry:
    """Create-on-first-use map of named metrics.

    Names are dotted paths; asking for an existing name returns the
    same object, and asking for it as a different kind raises (one
    name, one meaning).
    """

    def __init__(self) -> None:
        # The per-metric locks are leaves (never held across another
        # acquire) but are still factory-made so the race sanitizer can
        # use them as happens-before edges.
        self._lock = make_lock("obs.registry")
        self._state = shared_state("obs.registry.metrics")
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, factory, kind: type):
        with self._lock:
            self._state.write()
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, Gauge)

    def histogram(self, name: str, **kwargs) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(**kwargs), Histogram
        )

    def latency_histogram(self, name: str) -> LatencyHistogram:
        return self._get_or_create(
            name, LatencyHistogram, LatencyHistogram
        )

    # ------------------------------------------------------- reporting
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Optional[object]:
        with self._lock:
            return self._metrics.get(name)

    def items_with_prefix(self, prefix: str) -> Iterator[tuple[str, object]]:
        """(name, metric) pairs under a dotted prefix, sorted by name."""
        for name in self.names():
            if name.startswith(prefix):
                yield name, self._metrics[name]

    def snapshot(self) -> dict:
        """JSON-serialisable dict: counters, gauges, histograms."""
        with self._lock:
            metrics = dict(self._metrics)
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.value
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.value
            else:
                out["histograms"][name] = metric.snapshot()
        return out

    def render(self) -> str:
        """Human-readable one-metric-per-line summary."""
        snap = self.snapshot()
        lines = []
        for name, value in snap["counters"].items():
            lines.append(f"{name:<32} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name:<32} {value:g}")
        for name, h in snap["histograms"].items():
            if not h.get("count"):
                lines.append(f"{name:<32} (empty)")
                continue
            keys = [k for k in ("p50", "p99", "p50_ms", "p99_ms") if k in h]
            tail = " ".join(f"{k}={h[k]:.4g}" for k in keys)
            lines.append(f"{name:<32} n={h['count']} mean="
                         f"{h.get('mean', h.get('mean_ms', 0.0)):.4g} {tail}")
        return "\n".join(lines) if lines else "(no metrics)"


def merge_histogram_snapshots(snapshots: list[dict]) -> dict:
    """Merge histogram *snapshot* dicts into one combined snapshot.

    Counts, sums, and buckets add; min/max combine; percentiles are
    re-estimated from the merged cumulative buckets — so a cluster-wide
    p99 is derived from the full distribution, not averaged from
    per-shard percentiles (which would be meaningless).  Handles both
    the raw-unit shape (``sum``/``buckets``) and the latency wire shape
    (``sum_ms``/``buckets_ms``); empty snapshots merge to
    ``{"count": 0}``.
    """
    snaps = [s for s in snapshots if s and s.get("count")]
    if not snaps:
        return {"count": 0}
    suffix = "_ms" if any("buckets_ms" in s for s in snaps) else ""
    bucket_key = "buckets" + suffix
    count = 0
    total = 0.0
    vmin = math.inf
    vmax = 0.0
    incremental: dict[float, int] = {}
    for s in snaps:
        count += s["count"]
        # Pre-`sum` snapshots (older producers) fall back to mean*count.
        total += s.get(
            "sum" + suffix, s.get("mean" + suffix, 0.0) * s["count"]
        )
        vmin = min(vmin, s.get("min" + suffix, math.inf))
        vmax = max(vmax, s.get("max" + suffix, 0.0))
        prev = 0
        for le, cum in s.get(bucket_key, []):
            incremental[le] = incremental.get(le, 0) + (cum - prev)
            prev = cum
    buckets: list[list] = []
    cumulative = 0
    for le in sorted(incremental):
        cumulative += incremental[le]
        buckets.append([le, cumulative])
    if not math.isfinite(vmin):
        vmin = 0.0
    merged = {
        "count": count,
        "mean" + suffix: total / count,
        "min" + suffix: vmin,
        "max" + suffix: vmax,
    }
    for p in (50, 95, 99):
        merged[f"p{p}" + suffix] = _bucket_percentile(
            buckets, count, vmin, vmax, p
        )
    merged["sum" + suffix] = total
    merged[bucket_key] = buckets
    return merged


def merge_shard_snapshots(
    cluster_snapshot: dict,
    shard_snapshots: list[dict],
    prefix: str = "cluster.shard",
) -> dict:
    """Merge per-shard registry snapshots into one shard-dimensioned view.

    Every per-shard metric appears as ``<prefix><i>.<name>`` (e.g.
    ``cluster.shard0.flush.bytes``); counters and gauges additionally
    roll up as sums under their bare name.  Histograms roll up via
    :func:`merge_histogram_snapshots` — bucket counts add and
    percentiles are re-estimated from the merged buckets (never
    averaged).  ``cluster_snapshot`` (the cluster's own registry, e.g.
    ``cluster.pool.*``) rides along unprefixed and wins any name
    collision with a rollup.
    """
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    histogram_groups: dict[str, list[dict]] = {}
    for i, snap in enumerate(shard_snapshots):
        for kind in ("counters", "gauges"):
            for name, value in snap.get(kind, {}).items():
                out[kind][f"{prefix}{i}.{name}"] = value
                out[kind][name] = out[kind].get(name, 0) + value
        for name, value in snap.get("histograms", {}).items():
            out["histograms"][f"{prefix}{i}.{name}"] = value
            histogram_groups.setdefault(name, []).append(value)
    for name, group in histogram_groups.items():
        out["histograms"][name] = merge_histogram_snapshots(group)
    for kind in ("counters", "gauges", "histograms"):
        out[kind].update(cluster_snapshot.get(kind, {}))
        out[kind] = dict(sorted(out[kind].items()))
    return out
