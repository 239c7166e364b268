"""Server/client behaviour tests plus the loopback integration test.

The integration test is the PR's acceptance gate: a real server on an
ephemeral port, concurrent client connections pushing enough data to
trigger memtable flushes and at least one compaction, read-your-writes
through the protocol, meaningful STATS, and a directory that passes
``verify_db`` after graceful shutdown.
"""

import asyncio
import socket
import struct
import threading
import time

import pytest

from repro.db import DB
from repro.db.verify import verify_db
from repro.devices import MemStorage, OSStorage
from repro.lsm import Options
from repro.server import (
    AsyncClient,
    ServerBusyError,
    ServerConfig,
    ServerThread,
    SyncClient,
)
from repro.server import protocol as P

SMALL = dict(
    memtable_bytes=8 * 1024,
    sstable_bytes=8 * 1024,
    level1_bytes=32 * 1024,
    level_multiplier=4,
)


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
        yield c


class TestBasicOps:
    def test_put_get_delete(self, client):
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"
        client.delete(b"k")
        assert client.get(b"k") is None

    def test_get_missing(self, client):
        assert client.get(b"never-written") is None

    def test_ping_echoes(self, client):
        assert client.ping(b"payload") == b"payload"
        assert client.ping() == b""

    def test_empty_value_roundtrip(self, client):
        client.put(b"empty", b"")
        assert client.get(b"empty") == b""

    def test_batch_is_atomic_and_counted(self, client):
        n = client.batch(
            [("put", b"a", b"1"), ("put", b"b", b"2"), ("delete", b"a")]
        )
        assert n == 3
        assert client.get(b"a") is None
        assert client.get(b"b") == b"2"

    def test_scan_range_limit_reverse(self, client):
        for i in range(20):
            client.put(b"s%02d" % i, b"v%02d" % i)
        pairs, truncated = client.scan(b"s05", b"s15")
        assert [k for k, _ in pairs] == [b"s%02d" % i for i in range(5, 15)]
        assert not truncated
        pairs, _ = client.scan(b"s05", b"s15", limit=3)
        assert len(pairs) == 3
        pairs, _ = client.scan(b"s05", b"s15", reverse=True)
        assert [k for k, _ in pairs] == [b"s%02d" % i for i in range(14, 4, -1)]

    def test_scan_server_cap_flags_truncation(self):
        config = ServerConfig(scan_limit_max=5)
        handle = ServerThread(
            DB(MemStorage(), Options(**SMALL), background=True), config
        ).start()
        try:
            with SyncClient(handle.host, handle.port) as c:
                for i in range(10):
                    c.put(b"t%02d" % i, b"v")
                pairs, truncated = c.scan()
                assert len(pairs) == 5
                assert truncated
                pairs, truncated = c.scan(limit=3)
                assert len(pairs) == 3
                assert not truncated
        finally:
            handle.stop()

    def test_compact_opcode(self, client):
        for i in range(300):
            client.put(b"c%04d" % i, b"x" * 64)
        client.compact()
        assert client.get(b"c0000") == b"x" * 64

    def test_stats_shape(self, client):
        client.put(b"k", b"v")
        client.get(b"k")
        stats = client.stats()
        assert stats["server"]["ops"]["PUT"]["requests"] >= 1
        assert stats["server"]["ops"]["GET"]["latency"]["p99_ms"] > 0
        assert stats["db"]["writes"] >= 1
        assert stats["db"]["write_stalled_now"] is False

    def test_large_values(self, client):
        blob = bytes(range(256)) * 2048  # 512 KiB
        client.put(b"big", blob)
        assert client.get(b"big") == blob


class TestPipelining:
    def test_sync_pipeline_order_and_results(self, client):
        with client.pipeline() as pipe:
            pipe.put(b"p1", b"v1")
            pipe.get(b"p1")
            pipe.get(b"absent")
            pipe.ping(b"x")
            pipe.delete(b"p1")
            pipe.get(b"p1")
        assert pipe.results == [None, b"v1", None, b"x", None, None]

    def test_pipelined_get_waits_for_a_slow_put(self, mem_server, client):
        # The PUT is held up on its worker thread before it reaches the
        # engine; a GET of the same key pipelined behind it must not
        # run on a second worker meanwhile and miss it.
        db = mem_server.server.db
        real_put = db.put
        started = threading.Event()

        def slow_put(key, value):
            started.set()
            time.sleep(0.3)
            real_put(key, value)

        db.put = slow_put
        try:
            with client.pipeline() as pipe:
                pipe.put(b"slow", b"v1")
                pipe.get(b"slow")
                pipe.put(b"slow", b"v2")
                pipe.get(b"slow")
        finally:
            db.put = real_put
        assert started.is_set()
        assert pipe.results == [None, b"v1", None, b"v2"]

    def test_pipeline_deeper_than_inflight_window(self, mem_server):
        # 100 pipelined requests vs a window of 4: TCP backpressure
        # must keep the connection correct, not deadlock it.
        config = ServerConfig(max_inflight_per_conn=4)
        handle = ServerThread(
            DB(MemStorage(), Options(**SMALL), background=True), config
        ).start()
        try:
            with SyncClient(handle.host, handle.port) as c:
                with c.pipeline() as pipe:
                    for i in range(100):
                        pipe.put(b"d%03d" % i, b"v%03d" % i)
                    for i in range(100):
                        pipe.get(b"d%03d" % i)
                assert pipe.results[100:] == [b"v%03d" % i for i in range(100)]
        finally:
            handle.stop()

    def test_async_client_concurrent_ops(self, mem_server):
        async def run():
            async with await AsyncClient.connect(
                mem_server.host, mem_server.port
            ) as c:
                await asyncio.gather(
                    *(c.put(b"a%03d" % i, b"v%03d" % i) for i in range(64))
                )
                values = await asyncio.gather(
                    *(c.get(b"a%03d" % i) for i in range(64))
                )
                assert values == [b"v%03d" % i for i in range(64)]
                assert await c.get(b"missing") is None
                pairs, _ = await c.scan(b"a000", b"a005")
                assert len(pairs) == 5
                assert (await c.stats())["server"]["ops"]["PUT"][
                    "requests"
                ] >= 64

        asyncio.run(run())


class TestBackpressure:
    def test_stalled_write_is_retried_transparently(self, mem_server):
        server = mem_server.server
        real = server.db.policy.write_stall
        fails = {"n": 3}

        def fake_write_stall(version):
            if fails["n"] > 0:
                fails["n"] -= 1
                return True
            return real(version)

        server.db.policy.write_stall = fake_write_stall
        try:
            config_retry = SyncClient(mem_server.host, mem_server.port)
            try:
                config_retry.put(b"k", b"v")  # retries through 3 refusals
                assert config_retry.stall_retries == 3
                assert config_retry.get(b"k") == b"v"
            finally:
                config_retry.close()
            assert server.metrics.counter("server.stall_rejections").value == 3
        finally:
            server.db.policy.write_stall = real

    def test_stall_budget_exhaustion_raises(self, mem_server):
        server = mem_server.server
        real = server.db.policy.write_stall
        server.db.policy.write_stall = lambda version: True
        try:
            with SyncClient(
                mem_server.host, mem_server.port, max_retries=2
            ) as c:
                with pytest.raises(ServerBusyError):
                    c.put(b"k", b"v")
                # Reads are never stall-gated.
                assert c.get(b"nothing") is None
        finally:
            server.db.policy.write_stall = real

    def test_reads_pass_during_stall(self, mem_server):
        server = mem_server.server
        with SyncClient(mem_server.host, mem_server.port) as c:
            c.put(b"k", b"v")
            real = server.db.policy.write_stall
            server.db.policy.write_stall = lambda version: True
            try:
                assert c.get(b"k") == b"v"
                pairs, _ = c.scan()
                assert pairs
            finally:
                server.db.policy.write_stall = real


class TestProtocolRobustness:
    def test_garbage_frame_drops_connection(self, mem_server):
        sock = socket.create_connection((mem_server.host, mem_server.port))
        try:
            # Announce 8 payload bytes, send junk with a bogus CRC.
            sock.sendall(struct.pack("<I", 8) + b"garbage!" + b"\x00\x00\x00\x00")
            sock.settimeout(5)
            assert sock.recv(1024) == b""  # server hung up
        finally:
            sock.close()
        assert mem_server.metrics.counter("server.protocol_errors").value == 1
        # The server survived: a fresh connection still works.
        with SyncClient(mem_server.host, mem_server.port) as c:
            assert c.ping(b"ok") == b"ok"

    def test_oversized_frame_refused(self, mem_server):
        sock = socket.create_connection((mem_server.host, mem_server.port))
        try:
            sock.sendall(struct.pack("<I", 1 << 31))
            sock.settimeout(5)
            assert sock.recv(1024) == b""
        finally:
            sock.close()

    def test_bad_body_reports_bad_request_and_keeps_connection(
        self, mem_server
    ):
        from repro.server.client import ServerError

        sock = socket.create_connection((mem_server.host, mem_server.port))
        try:
            # Well-framed GET whose body is a truncated length prefix.
            sock.sendall(P.encode_request(P.OP_GET, 1, b"\xff"))
            buf = b""
            while len(buf) < 4:
                buf += sock.recv(4096)
            length = P.frame_length(buf[:4])
            while len(buf) < 4 + length + 4:
                buf += sock.recv(4096)
            response = P.decode_response(P.decode_frame(length, buf[4:]))
            assert response.status == P.ST_BAD_REQUEST
            # Same connection still serves valid requests.
            sock.sendall(P.encode_request(P.OP_PING, 2, b"still alive"))
            more = sock.recv(4096)
            assert b"still alive" in more
        finally:
            sock.close()
        with pytest.raises(ServerError):
            raise ServerError(P.ST_BAD_REQUEST, "for coverage of the type")


class TestReceiveBuffer:
    """Requests are received into one buffer per connection.

    A plain ``Protocol`` costs a 256 KB allocation per socket read, and
    whether glibc then trims and re-grows the heap on every request is
    decided by heap layout: ``read-cached`` ran at two speeds.
    """

    def test_no_large_allocation_per_request(self, client):
        import tracemalloc

        client.put(b"k", b"v" * 100)
        tracemalloc.start()
        try:
            client.get(b"k")
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in range(50):
                assert client.get(b"k") == b"v" * 100
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The client in this process receives into a buffer it keeps.
        assert peak - before < 128 * 1024

    def test_frame_longer_than_the_buffer_and_two_in_one_read(self, client):
        from repro.server.server import _RECV_BYTES

        blob = bytes(range(256)) * (3 * _RECV_BYTES // 256) + b"tail"
        with client.pipeline() as pipe:
            pipe.put(b"long", blob)
            pipe.put(b"a", b"1")
            pipe.get(b"a")
            pipe.get(b"long")
        assert pipe.results[2:] == [b"1", blob]


class TestServeParser:
    def test_dbtool_accepts_serve(self):
        from repro.tools.dbtool import build_parser

        args = build_parser().parse_args(
            ["serve", "/tmp/db", "--port", "9999", "--workers", "2"]
        )
        assert args.command == "serve"
        assert args.port == 9999
        assert not args.sync_compaction


class TestLoopbackIntegration:
    """The PR's acceptance scenario."""

    def test_concurrent_load_flush_compaction_stats_verify(self, tmp_path):
        path = str(tmp_path / "served-db")
        db = DB(OSStorage(path), Options(**SMALL), background=True)
        handle = ServerThread(db).start()
        n_clients, n_keys = 3, 400
        errors = []

        def worker(worker_id: int) -> None:
            try:
                with SyncClient(handle.host, handle.port) as c:
                    for i in range(n_keys):
                        key = b"w%d-%04d" % (worker_id, i)
                        c.put(key, b"x" * 64)
                        if i % 97 == 0:  # read-your-writes, mid-stream
                            assert c.get(key) == b"x" * 64
                    for i in range(0, n_keys, 37):
                        key = b"w%d-%04d" % (worker_id, i)
                        assert c.get(key) == b"x" * 64, key
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"client-{i}")
            for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

        # Enough data crossed the wire to exercise the LSM machinery.
        with SyncClient(handle.host, handle.port) as c:
            stats = c.stats()
            pairs, _ = c.scan(b"w1-", b"w1.", limit=5)
            assert len(pairs) == 5
        assert stats["db"]["flushes"] >= 1
        assert stats["db"]["compactions"] >= 1
        ops = stats["server"]["ops"]
        assert ops["PUT"]["requests"] == n_clients * n_keys
        assert ops["GET"]["requests"] > 0
        for name in ("PUT", "GET"):
            latency = ops[name]["latency"]
            assert latency["count"] == ops[name]["requests"]
            assert 0 < latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert stats["server"]["connections_opened"] >= n_clients

        # Graceful shutdown drains, flushes, compacts, closes the DB...
        handle.stop()
        assert db._closed
        # ...and leaves a directory that passes full verification.
        report = verify_db(OSStorage(path), Options(**SMALL))
        assert report.ok, report.render()

        # Every key survives a cold reopen.
        reopened = DB(OSStorage(path), Options(**SMALL))
        try:
            for worker_id in range(n_clients):
                for i in range(0, n_keys, 113):
                    key = b"w%d-%04d" % (worker_id, i)
                    assert reopened.get(key) == b"x" * 64
        finally:
            reopened.close()


class TestNetbench:
    def test_small_closed_loop_run(self):
        from repro.bench.netbench import run_net_benchmark

        result = run_net_benchmark(
            mix="a",
            n_ops=600,
            record_count=200,
            value_bytes=32,
            connections=3,
            options=Options(**SMALL),
        )
        assert result.n_ops == 600
        assert result.connections == 3
        assert result.ops_per_second > 0
        assert result.latency.count == 600
        assert 0 < result.percentile_ms(50) <= result.percentile_ms(99)
        assert set(result.op_counts) <= {"read", "update", "insert", "rmw"}
        assert result.server_stats["db"]["writes"] > 0
