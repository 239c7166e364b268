"""End-to-end telemetry: METRICS opcode, STATS wire shape, tracing.

PR 7's acceptance surface: the live exposition endpoint serves
parseable Prometheus text and a well-formed JSON snapshot from plain,
sharded, and replicated servers; STATS carries the ``engine`` and
``repl`` sections over the wire; and a traced client request against a
replicated server produces spans in every process that share one trace
id.
"""

import time

import pytest

from repro.cluster import ShardedDB
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options
from repro.obs import (
    EventLog,
    Observability,
    Tracer,
    merge_chrome_traces,
    parse_prometheus,
)
from repro.replication import Follower, ReplicationHub
from repro.server import ServerConfig, ServerThread, SyncClient
from repro.server import protocol as P
from repro.tools.top import render_top, sample

SMALL = dict(
    memtable_bytes=8 * 1024,
    sstable_bytes=8 * 1024,
    level1_bytes=32 * 1024,
    level_multiplier=4,
)


def _wait(cond, timeout=10.0, interval=0.01, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


@pytest.fixture()
def mem_server():
    handle = ServerThread(
        DB(MemStorage(), Options(**SMALL), background=True)
    ).start()
    yield handle
    handle.stop()


@pytest.fixture()
def client(mem_server):
    with SyncClient(mem_server.host, mem_server.port) as c:
        c.hello()
        yield c


class TestMetricsOpcode:
    def test_prometheus_text_parses(self, client):
        # Enough volume to flush (8 KiB memtable) so engine gauges
        # like db.l0_files exist by scrape time.
        for i in range(200):
            client.put(f"k{i:03d}".encode(), b"v" * 100)
            client.get(f"k{i:03d}".encode())
        text = client.metrics("prom")
        series = parse_prometheus(text)  # raises on malformed output
        assert series["repro_server_op_PUT_requests_total"] == [({}, 200.0)]
        assert series["repro_server_op_GET_requests_total"] == [({}, 200.0)]
        # Engine metrics merge into the same document.
        assert "repro_wal_records_total" in series
        assert "repro_db_l0_files" in series

    def test_json_snapshot_shape(self, client):
        client.put(b"k", b"v")
        snap = client.metrics("json")
        for kind in ("counters", "gauges", "histograms"):
            assert isinstance(snap[kind], dict)
        assert snap["counters"]["server.op.PUT.requests"] == 1
        hist = snap["histograms"]["server.op.PUT.latency"]
        assert hist["count"] == 1
        assert hist["buckets_ms"][-1][1] == 1  # cumulative to total

    def test_metrics_requires_v21_hello(self, mem_server):
        with SyncClient(mem_server.host, mem_server.port) as raw:
            # metrics() itself works without hello (server accepts the
            # opcode on any connection) — only the TRACE_FLAG needs the
            # negotiation.  Assert the opcode answers.
            assert raw.metrics("json")["counters"] is not None

    def test_trace_dump_opcode(self, mem_server):
        with SyncClient(mem_server.host, mem_server.port) as c:
            trace = c.trace_dump()
        # Server has no enabled tracer: an empty but valid document.
        assert trace["traceEvents"] == []


class TestShardedTelemetry:
    def test_per_shard_metrics_and_engine_stats(self):
        db = ShardedDB.in_memory(4, options=Options(**SMALL), background=True)
        with ServerThread(db) as handle:
            with SyncClient(handle.host, handle.port) as c:
                c.hello()
                for i in range(120):
                    c.put(f"key{i:04d}".encode(), b"x" * 128)
                snap = c.metrics("json")
                # Per-shard series keep their prefix, rollup is bare.
                shard_keys = [
                    k for k in snap["counters"]
                    if k.startswith("cluster.shard") and k.endswith(
                        "wal.records"
                    )
                ]
                assert len(shard_keys) == 4
                assert snap["counters"]["wal.records"] == sum(
                    snap["counters"][k] for k in shard_keys
                )

                text = c.metrics("prom")
                series = parse_prometheus(text)
                samples = series["repro_wal_records_total"]
                # 4 shard-labelled samples + 1 unlabelled rollup.
                assert len(samples) == 5
                shards = {
                    lbl["shard"] for lbl, _ in samples if "shard" in lbl
                }
                assert shards == {"0", "1", "2", "3"}

                stats = c.stats()
                assert stats["cluster"]["n_shards"] == 4
                engine = stats["engine"]
                assert {"counters", "gauges", "histograms"} <= set(engine)

    def test_sharded_stats_merge_histograms(self):
        db = ShardedDB.in_memory(2, options=Options(**SMALL), background=True)
        with ServerThread(db) as handle:
            with SyncClient(handle.host, handle.port) as c:
                c.hello()
                for i in range(200):
                    c.put(f"key{i:05d}".encode(), b"y" * 200)
                snap = c.metrics("json")
                flushes = snap["counters"].get("db.flushes", 0)
                assert flushes >= 1  # small memtables: flushed by now
                hist = snap["histograms"].get("db.flush_seconds")
                assert hist is not None and hist["count"] >= 1


class TestReplicatedTelemetry:
    def _replicated(self):
        primary = DB(
            MemStorage(),
            Options(wal_retain_bytes=8 * 1024 * 1024),
            obs=Observability(tracer=Tracer(enabled=True)),
        )
        hub = ReplicationHub(primary)
        config = ServerConfig(repl_acks=1, repl_ack_timeout_s=5.0)
        return primary, hub, config

    def _start_follower(self, handle):
        fdb = DB(MemStorage(), Options())
        storage = fdb.storage

        def factory():
            return DB(storage, Options())

        return Follower(
            fdb, storage, factory, handle.host, handle.port, "follower-a",
            retry_interval_s=0.05,
        ).start()

    def test_repl_gauges_and_stats_shape(self):
        primary, hub, config = self._replicated()
        with ServerThread(primary, config, own_db=False, hub=hub) as handle:
            follower = self._start_follower(handle)
            try:
                _wait(lambda: hub.n_followers == 1, what="follower")
                with SyncClient(handle.host, handle.port) as c:
                    c.hello()
                    for i in range(50):
                        c.put(f"key{i:04d}".encode(), b"v" * 32)
                    target = primary.last_sequence
                    _wait(
                        lambda: follower.status()["applied_seq"] >= target,
                        what="follower catch-up",
                    )

                    snap = c.metrics("json")
                    gauges = snap["gauges"]
                    assert gauges["repl.followers"] == 1
                    assert gauges["repl.lag_records"] == 0
                    assert gauges["repl.lag_seconds"] >= 0.0
                    assert "repl.ring_records" in gauges
                    assert "repl.epoch" in gauges
                    hist = snap["histograms"]["repl.ack_wait_seconds"]
                    assert hist["count"] >= 50

                    text = c.metrics("prom")
                    series = parse_prometheus(text)
                    assert series["repro_repl_followers"] == [({}, 1.0)]
                    assert "repro_repl_lag_records" in series

                    stats = c.stats()
                    repl = stats["repl"]
                    assert repl["role"] == "primary"
                    assert repl["ack_level_default"] == 1
                    (entry,) = repl["followers"]
                    assert entry["id"] == "follower-a"
                    assert entry["lag_records"] == 0
                    assert {
                        "acked_seq", "lag_seconds", "acked_age_seconds",
                    } <= set(entry)
            finally:
                follower.stop()

    def test_traced_request_spans_every_process(self):
        """Acceptance: one trace id across client/server/db/repl spans."""
        primary, hub, config = self._replicated()
        client_tracer = Tracer(enabled=True)
        with ServerThread(primary, config, own_db=False, hub=hub) as handle:
            follower = self._start_follower(handle)
            try:
                _wait(lambda: hub.n_followers == 1, what="follower")
                with SyncClient(
                    handle.host, handle.port, tracer=client_tracer
                ) as c:
                    assert c.hello() == (P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR)
                    c.put(b"traced-key", b"traced-value")
                    assert c.get(b"traced-key") == b"traced-value"
            finally:
                follower.stop()

        client_spans = client_tracer.spans()
        put_span = next(
            s for s in client_spans if s.name == "client:PUT"
        )
        trace_id = put_span.args["trace_id"]
        server_spans = [
            s for s in primary.obs.tracer.spans()
            if s.args.get("trace_id") == trace_id
        ]
        names = {s.name for s in server_spans}
        assert "server:PUT" in names
        assert "db:PUT" in names
        assert "repl-ack-wait" in names
        # Parent chain: server span's parent is the client span.
        server_put = next(
            s for s in server_spans if s.name == "server:PUT"
        )
        assert server_put.args["parent_span_id"] == put_span.args["span_id"]
        db_put = next(s for s in server_spans if s.name == "db:PUT")
        assert db_put.args["parent_span_id"] == server_put.args["span_id"]

        # The merged Chrome trace puts both processes on distinct lanes.
        merged = merge_chrome_traces([
            ("client", client_tracer.chrome_trace()),
            ("primary", primary.obs.tracer.chrome_trace()),
        ])
        lanes = {
            e["args"]["name"]
            for e in merged["traceEvents"]
            if e["name"] == "process_name"
        }
        assert lanes == {"client", "primary"}

    def test_event_log_records_repl_lifecycle(self):
        events = []
        primary = DB(
            MemStorage(),
            Options(wal_retain_bytes=8 * 1024 * 1024),
            obs=Observability(events=EventLog(events.append)),
        )
        hub = ReplicationHub(primary)
        with ServerThread(primary, own_db=False, hub=hub) as handle:
            follower = self._start_follower(handle)
            try:
                _wait(lambda: hub.n_followers == 1, what="follower")
                with SyncClient(handle.host, handle.port) as c:
                    c.hello()
                    c.put(b"k", b"v")
            finally:
                follower.stop()
        kinds = {e["event"] for e in events}
        assert "repl.subscribe" in kinds


class TestRenderTop:
    def _sample(self, puts, gets, stalled=False, repl=False):
        metrics = {
            "counters": {
                "server.op.PUT.requests": puts,
                "server.op.GET.requests": gets,
                "db.flushes": 3,
            },
            "gauges": {
                "db.l0_files": 2,
                "repl.followers": 1,
                "repl.lag_records": 5,
                "repl.lag_seconds": 0.25,
                "repl.ring_records": 10,
            },
            "histograms": {
                "server.op.GET.latency": {
                    "count": gets, "p50_ms": 0.5, "p99_ms": 2.0,
                },
            },
        }
        stats = {"db": {"write_stalled_now": stalled}}
        if repl:
            stats["repl"] = {
                "role": "primary",
                "epoch": 4,
                "followers": [{
                    "id": "follower-a", "acked_seq": 90,
                    "lag_records": 5, "lag_seconds": 0.25,
                }],
            }
        return {"metrics": metrics, "stats": stats}

    def test_rates_from_counter_deltas(self):
        frame = render_top(
            self._sample(100, 200), self._sample(300, 500), dt=2.0,
            endpoint="localhost:4000",
        )
        assert "PUT 100/s" in frame
        assert "GET 150/s" in frame
        assert "total 250/s" in frame
        assert "localhost:4000" in frame
        assert "p50=0.50ms p99=2.00ms" in frame
        assert "L0 files 2" in frame
        assert "stalled=no" in frame

    def test_stall_and_repl_lines(self):
        frame = render_top(
            self._sample(0, 0, repl=True),
            self._sample(10, 0, stalled=True, repl=True),
            dt=1.0,
        )
        assert "stalled=YES" in frame
        assert "epoch 4" in frame
        assert "lag 5 rec / 0.250s" in frame
        assert "↳ follower-a: lag 5 rec" in frame

    def test_live_sample_renders(self, client):
        client.put(b"a", b"1")
        prev = sample(client)
        client.put(b"b", b"2")
        client.get(b"a")
        cur = sample(client)
        frame = render_top(prev, cur, dt=0.5, endpoint="test")
        assert frame.startswith("repro top — test")
        assert "engine" in frame
