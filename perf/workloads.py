"""The four workloads: sizes, engine options and seeded input streams.

Everything the program under test receives is generated here, before
any timed window, from ``--seed``.  Sizes are the issue's reference
sizes divided by a scale's ``shrink``; a run's counts are fixed before
it starts, as the workload's reference rate times ``--seconds``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workload import ValueGenerator, format_key, uniform_keys, zipfian_keys

GET, PUT, SCAN = 0, 1, 2
KIND_NAMES = ("get", "put", "scan")
SCAN_LIMIT = 20

#: ``<16-digit key index>:<6-digit version>:`` in front of every value.
VALUE_HEADER_BYTES = 24


@dataclass(frozen=True)
class Scale:
    """How far the issue's reference sizes are shrunk for one run."""

    name: str
    seconds: float  # default length of the timed window
    shrink: int  # divisor of engine byte sizes, record counts, cache sizes
    quiet_s: float  # counters must hold still this long to count as idle


#: Work per second of timed window that the engine sustains on the 2-core
#: reference box: requests for the served workloads, upper-run keys for
#: ``compact``.  A run's fixed counts are rate x seconds at every scale.
RATES = {
    "compact": 1000, "write-heavy": 300, "read-cached": 2900, "mixed-large": 430,
}

SCALES = {
    # The issue's sizes and 35 s windows: ~4 minutes for everything, too
    # long for the driver's time cap.  Run once for perf/README.md.
    "full": Scale("full", 35.0, 1, 0.5),
    # What BENCHMARK.json runs: every count and engine size divided by
    # four, which keeps ~70 flushes in a write-heavy window.
    "bench": Scale("bench", 15.0, 4, 0.5),
    # Same code path in a few seconds, for perf/test_smoke.py.
    "smoke": Scale("smoke", 0.25, 32, 0.12),
}


def engine_options(scale: Scale, cache_entries: int) -> dict:
    """The flush policy and tree shape, identical for every run of a scale."""
    return {
        "memtable_bytes": 256 * 1024 // scale.shrink,
        "sstable_bytes": 128 * 1024 // scale.shrink,
        "level1_bytes": 1024 * 1024 // scale.shrink,
        "level_multiplier": 4,
        "block_bytes": 4096,
        "compression": "lz77",
        "checksum": "crc32",
        "compaction_policy": "leveled",
        "wal_sync_interval": 1,  # an ack means the WAL record was synced
        "block_cache_entries": cache_entries,
    }


def subtask_bytes(scale: Scale) -> int:
    return 256 * 1024 // scale.shrink


@dataclass(frozen=True)
class Served:
    """A served workload at the issue's reference size."""

    name: str
    records: int
    value_bytes: int
    cache_entries: int
    connections: int
    mix: tuple[float, float, float]  # GET, PUT, SCAN shares
    zipfian: bool
    compact_after_load: bool
    ops: int = 0  # set by sized()

    def sized(self, scale: Scale, seconds: float) -> "Served":
        return Served(
            self.name,
            max(4 * SCAN_LIMIT, self.records // scale.shrink),
            self.value_bytes,
            max(2, self.cache_entries // scale.shrink),
            self.connections,
            self.mix,
            self.zipfian,
            self.compact_after_load,
            max(self.connections, round(RATES[self.name] * seconds)),
        )


SERVED = {
    w.name: w
    for w in (
        Served("write-heavy", 5000, 1000, 1024, 2, (0.0, 1.0, 0.0), False, False),
        Served("read-cached", 5000, 100, 4096, 1, (1.0, 0.0, 0.0), True, True),
        Served("mixed-large", 8000, 1000, 64, 2, (0.50, 0.45, 0.05), False, False),
    )
}

WORKLOADS = ("compact", *SERVED)

#: compact input entries are the paper's section IV-A shape: 16 B keys +
#: 100 B values; at the issue's size two runs of 34,500 make ~8 MB raw.
COMPACT_VALUE_BYTES = 100

#: Untimed operations after load, at the reference size.
WARMUP_FULL_OPS = 500


def warmup_ops(scale: Scale) -> int:
    return max(50, WARMUP_FULL_OPS // scale.shrink)


def compact_keys(scale: Scale, seconds: float) -> int:
    return max(256, round(RATES["compact"] * seconds))


class Values:
    """Values that say which key and which version they belong to."""

    def __init__(self, value_bytes: int, seed: int) -> None:
        self._gen = ValueGenerator(value_bytes - VALUE_HEADER_BYTES, seed=seed)

    def make(self, index: int, version: int) -> bytes:
        return b"%016d:%06d:" % (index, version) + self._gen.value_for(
            index * 1_000_003 + version
        )


def load_records(spec: Served, seed: int) -> list[tuple[bytes, bytes]]:
    """Every key of the store at version 0, in key order (a sorted bulk load)."""
    values = Values(spec.value_bytes, seed)
    return [(format_key(i), values.make(i, 0)) for i in range(spec.records)]


def op_streams(spec: Served, seed: int, warmup: int) -> tuple[list[list[tuple]], int]:
    """Per-connection operation lists and the per-connection warm-up length.

    Connection ``c`` only touches keys with ``index % connections == c``,
    so the value a GET must return is known when the stream is built:
    each op is ``(kind, key, put_value_or_None, expected_get_value_or_None)``.
    The first ``warmup // connections`` ops of each list run untimed.
    """
    conns = spec.connections
    values = Values(spec.value_bytes, seed)
    per_conn_warm = warmup // conns
    per_conn = spec.ops // conns + per_conn_warm
    share = spec.records // conns
    p_get, p_put, _ = spec.mix
    streams = []
    for c in range(conns):
        key_seed = seed * 7919 + c
        keys = (
            zipfian_keys(per_conn, keyspace=share, theta=0.99, seed=key_seed)
            if spec.zipfian
            else uniform_keys(per_conn, keyspace=share, seed=key_seed)
        )
        kinds = random.Random(key_seed ^ 0x5EED)
        version: dict[int, int] = {}
        ops = []
        for key in keys:
            index = int(key) * conns + c
            r = kinds.random()
            if r < p_get:
                expected = values.make(index, version.get(index, 0))
                ops.append((GET, format_key(index), None, expected))
            elif r < p_get + p_put:
                v = version.get(index, 0) + 1
                version[index] = v
                ops.append((PUT, format_key(index), values.make(index, v), None))
            else:
                start = min(index, spec.records - SCAN_LIMIT)
                ops.append((SCAN, format_key(start), None, None))
        streams.append(ops)
    return streams, per_conn_warm


def scan_ok(start: bytes, pairs: list[tuple[bytes, bytes]]) -> bool:
    """Right length, ascending from ``start``, each value naming its key."""
    if len(pairs) != SCAN_LIMIT:
        return False
    prev = None
    for key, value in pairs:
        if key < start or (prev is not None and key <= prev):
            return False
        if value[:16] != key:
            return False
        prev = key
    return True
