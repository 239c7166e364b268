"""The request fast path: what cannot wait is served on the loop thread.

A request is answered by the connection's reader, on the event loop,
when nothing is in flight on that connection and the opcode can be
executed without waiting (``PING``; ``GET`` through
``DB.get(wait=False)``).  Everything else — and every request that
raises ``WouldBlock`` — goes to the worker pool as before.  These tests
pin the rule from the outside: which requests reach the pool, that the
loop never waits on the DB mutex, a table open or a device read, that
responses stay in request order, and that both entries share one
status mapping, one metrics record and one trace context.
"""

import socket
import threading
import time

import pytest

from repro.db import DB
from repro.devices import FaultPlan, FaultyStorage, MemStorage, TransientIOError
from repro.obs import Observability, Tracer
from repro.server import (
    ServerBusyError,
    ServerConfig,
    ServerThread,
    SyncClient,
)
from repro.server import protocol as P

from tests.helpers import small_options


def _wait(cond, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {what}")


def _pool_calls(handle: ServerThread) -> list[str]:
    """Opcode names of every request handed to the worker pool from now on."""
    pool = handle.server._pool
    calls: list[str] = []
    submit = pool.submit

    def recording_submit(fn, *args, **kwargs):
        if fn == handle.server._execute:
            calls.append(args[0].opcode_name)
        return submit(fn, *args, **kwargs)

    pool.submit = recording_submit
    return calls


@pytest.fixture()
def handle():
    # Synchronous compaction: which tables exist, and which are open,
    # changes only inside a request.
    db = DB(MemStorage(), small_options(block_cache_entries=64))
    with ServerThread(db) as handle:
        yield handle


@pytest.fixture()
def client(handle):
    with SyncClient(handle.host, handle.port) as c:
        yield c


class TestWhichRequestsReachThePool:
    def test_ping_and_memtable_get_are_answered_by_the_reader(
        self, handle, client
    ):
        client.put(b"k", b"v")
        calls = _pool_calls(handle)
        assert client.ping(b"echo") == b"echo"
        assert client.hello() == (P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR)
        assert client.get(b"k") == b"v"
        assert client.get(b"missing") is None
        assert calls == []
        # ...and are still counted and timed like any other request.
        ops = handle.metrics.snapshot()["ops"]
        assert ops["PING"]["requests"] == 2
        assert ops["GET"]["requests"] == 2
        assert ops["GET"]["latency"]["count"] == 2

    def test_everything_that_may_wait_goes_to_the_pool(self, handle, client):
        calls = _pool_calls(handle)
        client.put(b"a", b"1")
        client.delete(b"a")
        client.batch([("put", b"b", b"2")])
        client.scan()
        client.stats()
        client.flush()
        client.compact()
        assert calls == [
            "PUT", "DELETE", "BATCH", "SCAN", "STATS", "FLUSH", "COMPACT",
        ]

    def test_cold_table_and_cold_block_fall_back_with_the_same_bytes(
        self, handle, client
    ):
        data = {b"key%04d" % i: b"value%04d" % i * 3 for i in range(200)}
        for key, value in data.items():
            client.put(key, value)
        client.flush()
        db = handle.server.db
        assert not db._tables  # nothing has read the new table yet
        key, value = b"key0100", data[b"key0100"]
        calls = _pool_calls(handle)
        assert client.get(key) == value  # table not open: pool
        assert calls == ["GET"]
        assert client.get(key) == value  # open and cached: reader
        assert calls == ["GET"]
        db._cache.clear()
        assert client.get(key) == value  # block not cached: pool
        assert calls == ["GET", "GET"]
        assert client.get(key) == value
        assert calls == ["GET", "GET"]
        # One answered GET is one engine get, whichever way it went.
        assert db.stats.gets == 4
        for key, value in data.items():
            assert client.get(key) == value

    def test_the_reader_never_reads_the_device(self, handle, client):
        data = {b"key%04d" % i: b"value%04d" % i * 3 for i in range(200)}
        for key, value in data.items():
            client.put(key, value)
        client.flush()
        client.compact()
        for key in data:  # warm every table and block through the pool
            client.get(key)
        reads = handle.server.db.obs.metrics.counter("io.mem.read.ops")
        before = reads.value
        calls = _pool_calls(handle)
        for key, value in data.items():
            assert client.get(key) == value
        assert calls == []
        assert reads.value == before


class TestOrder:
    def test_pipelined_put_get_ping_stay_in_order(self, handle, client):
        """Inline only with nothing in flight: a GET behind a PUT waits
        for it, so it sees it, and responses keep request order (the
        client asserts each response's id)."""
        calls = _pool_calls(handle)
        expected = []
        with client.pipeline() as p:
            for i in range(100):
                p.put(b"k", b"v%03d" % i)
                p.get(b"k")
                p.ping(b"p%03d" % i)
                expected += [None, b"v%03d" % i, b"p%03d" % i]
        assert p.results == expected
        assert calls.count("PUT") == 100
        # After the burst the connection is idle again: back to inline.
        del calls[:]
        assert client.get(b"k") == b"v099"
        assert calls == []

    def test_a_long_inline_pipeline_yields_to_other_connections(self):
        """10 x max_inflight_per_conn GETs arrive at once on A, a PING
        on B right behind them: the PING is served within one yield
        window, not after A's whole pipeline."""
        window = 8
        db = DB(MemStorage(), small_options())
        config = ServerConfig(max_inflight_per_conn=window)
        with ServerThread(db, config) as handle:
            served: list[str] = []
            record = handle.metrics.record

            def recording(opcode, *args, **kwargs):
                served.append(P.OPCODE_NAMES[opcode])
                record(opcode, *args, **kwargs)

            a = socket.create_connection((handle.host, handle.port))
            b = socket.create_connection((handle.host, handle.port))
            try:
                with SyncClient(handle.host, handle.port) as c:
                    c.put(b"k", b"v")
                for sock in (a, b):  # both accepted and idle
                    sock.sendall(P.encode_request(P.OP_PING, 1))
                    assert _read_frames(sock, 1)[0].ok
                handle.metrics.record = recording
                # Park the loop so both bursts are waiting when it looks.
                parked, go = threading.Event(), threading.Event()
                handle._loop.call_soon_threadsafe(
                    lambda: (parked.set(), go.wait(10))
                )
                assert parked.wait(10)
                n = 10 * window
                a.sendall(
                    b"".join(
                        P.encode_request(P.OP_GET, 2 + i, P.encode_lp(b"k"))
                        for i in range(n)
                    )
                )
                b.sendall(P.encode_request(P.OP_PING, 2, b"late"))
                go.set()
                assert _read_frames(b, 1)[0].body == b"late"
                replies = _read_frames(a, n)
                assert [r.request_id for r in replies] == list(range(2, 2 + n))
                assert all(r.body == P.encode_lp(b"v") for r in replies)
            finally:
                a.close()
                b.close()
        assert served.count("GET") == n
        assert served.index("PING") <= window


def _read_frames(sock: socket.socket, n: int) -> list[P.Response]:
    sock.settimeout(10)
    buf = b""
    out = []
    while len(out) < n:
        while len(buf) < 4 or len(buf) < 8 + P.frame_length(buf[:4]):
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection"
            buf += chunk
        length = P.frame_length(buf[:4])
        out.append(
            P.decode_response(P.decode_frame(length, buf[4 : 8 + length]))
        )
        buf = buf[8 + length :]
    return out


class TestTheLoopNeverWaitsForTheMutex:
    def test_get_falls_back_while_ping_is_answered_during_the_hold(
        self, handle
    ):
        db = handle.server.db
        with SyncClient(handle.host, handle.port) as c1, SyncClient(
            handle.host, handle.port
        ) as c2:
            c1.put(b"k", b"v")
            calls = _pool_calls(handle)
            got = []
            with db._lock:
                reader = threading.Thread(
                    target=lambda: got.append(c1.get(b"k")), name="reader"
                )
                reader.start()
                # The GET found the mutex held and moved to a worker,
                # which now waits there; the loop is free.
                _wait(lambda: calls == ["GET"], what="GET to reach the pool")
                for i in range(20):
                    assert c2.ping(b"%d" % i) == b"%d" % i
                assert reader.is_alive() and not got
            reader.join(timeout=10)
            assert got == [b"v"]
            assert calls == ["GET"]


class TestBothEntriesShareOneHandler:
    def test_transient_io_error_is_stalled_on_both_entries(self):
        storage = FaultyStorage(MemStorage())
        db = DB(storage, small_options())
        with ServerThread(db) as handle:
            with SyncClient(
                handle.host, handle.port, max_retries=0
            ) as client:
                for i in range(100):
                    client.put(b"key%04d" % i, b"v" * 40)
                client.flush()
                calls = _pool_calls(handle)

                # Pool entry: the table open's first read fails.
                storage.arm(FaultPlan(fail_nth={"read": 1}))
                with pytest.raises(ServerBusyError):
                    client.get(b"key0001")
                assert calls == ["GET"]
                assert handle.metrics.stall_rejections == 1
                assert client.get(b"key0001") == b"v" * 40
                assert client.get(b"key0001") == b"v" * 40  # inline now
                assert calls == ["GET", "GET"]

                # Reader entry: the same exception, raised where no
                # storage call can raise it for real.
                engine_get = db.get

                def failing_get(key, snapshot=None, wait=True):
                    if not wait:
                        raise TransientIOError("injected on the loop thread")
                    return engine_get(key, snapshot, wait)

                db.get = failing_get
                with pytest.raises(ServerBusyError):
                    client.get(b"key0001")
                del db.get
                assert calls == ["GET", "GET"]
                assert handle.metrics.stall_rejections == 2
                assert handle.metrics.op(P.OP_GET).errors == 0

    def test_engine_failure_on_the_reader_is_a_server_error(
        self, handle, client
    ):
        db = handle.server.db
        calls = _pool_calls(handle)

        def broken_get(key, snapshot=None, wait=True):
            raise RuntimeError("boom")

        db.get = broken_get
        try:
            with pytest.raises(Exception, match="SERVER_ERROR: RuntimeError: boom"):
                client.get(b"k")
        finally:
            del db.get
        assert calls == []
        assert handle.metrics.op(P.OP_GET).errors == 1
        assert client.ping() == b""  # the connection survived

    def test_closing_server_answers_shutting_down_inline(self, handle, client):
        calls = _pool_calls(handle)
        handle.server._closing = True
        try:
            with pytest.raises(Exception, match="SHUTTING_DOWN"):
                client.ping()
            with pytest.raises(Exception, match="SHUTTING_DOWN"):
                client.get(b"k")
        finally:
            handle.server._closing = False
        assert calls == []

    def test_inline_get_span_carries_the_clients_trace_id(self):
        db = DB(
            MemStorage(),
            small_options(block_cache_entries=64),
            obs=Observability(tracer=Tracer(enabled=True)),
        )
        client_tracer = Tracer(enabled=True)
        with ServerThread(db) as handle:
            with SyncClient(
                handle.host, handle.port, tracer=client_tracer
            ) as client:
                client.hello()
                for i in range(100):
                    client.put(b"key%04d" % i, b"v" * 40)
                calls = _pool_calls(handle)
                assert client.get(b"key0001") == b"v" * 40  # memtable
                client.flush()
                assert client.get(b"key0002") == b"v" * 40  # cold: pool
                assert calls == ["FLUSH", "GET"]

        inline, fallback = [
            s for s in client_tracer.spans() if s.name == "client:GET"
        ]
        for client_span, thread_prefix in (
            (inline, "kv-server"), (fallback, "kv-worker"),
        ):
            spans = [
                s for s in db.obs.tracer.spans()
                if s.args.get("trace_id") == client_span.args["trace_id"]
            ]
            # One server span per request: a probe that raised
            # WouldBlock leaves none behind.
            assert sorted(s.name for s in spans) == ["db:GET", "server:GET"]
            server_get = next(s for s in spans if s.name == "server:GET")
            db_get = next(s for s in spans if s.name == "db:GET")
            assert (
                server_get.args["parent_span_id"]
                == client_span.args["span_id"]
            )
            assert db_get.args["parent_span_id"] == server_get.args["span_id"]
            assert server_get.thread.startswith(thread_prefix)
            assert db_get.thread == server_get.thread


class TestMajor2PeersFailAtFraming:
    def test_crc32c_trailer_is_a_protocol_error(self, handle):
        from repro.codec.checksum import crc32c, mask_crc
        from repro.codec.varint import put_fixed32

        payload = bytes([P.OP_PING, 1])
        old_frame = (
            put_fixed32(len(payload))
            + payload
            + put_fixed32(mask_crc(crc32c(payload)))
        )
        with pytest.raises(P.ProtocolError, match="frame checksum mismatch"):
            P.decode_frame(len(payload), old_frame[4:])
        with socket.create_connection((handle.host, handle.port)) as sock:
            sock.settimeout(10)
            sock.sendall(old_frame)
            assert sock.recv(1) == b""  # dropped without a reply
        _wait(
            lambda: handle.metrics.protocol_errors == 1,
            what="protocol error to be counted",
        )
