"""Clients and framing errors: drop the connection, never re-read it.

After a ``ProtocolError`` out of the receive path (checksum mismatch,
oversize length, id mismatch) some of a frame has been consumed or a
reply to another request is still coming, so the byte stream can no
longer be matched to requests.  The server drops such a connection;
the clients must too, and the next call must work over a fresh one.
Also pins the sync client's receive buffer: linear in the bytes
received however many responses arrive together.
"""

import asyncio
import gc
import socket
import threading

import pytest

from repro.db import DB
from repro.devices import FaultyProxy, MemStorage, NetFaultPlan
from repro.replication import ReplicationHub
from repro.server import (
    AsyncClient,
    ClientError,
    ProtocolError,
    RetryPolicy,
    ServerBusyError,
    ServerConfig,
    ServerThread,
    SyncClient,
)
from repro.server import protocol as P


@pytest.fixture()
def proxied():
    """A served DB behind a fault proxy: ``(server handle, proxy)``."""
    with ServerThread(DB(MemStorage())) as handle:
        with FaultyProxy(handle.host, handle.port).start() as proxy:
            yield handle, proxy


class TestSyncClient:
    def test_checksum_mismatch_tears_down_and_next_call_reconnects(
        self, proxied
    ):
        handle, proxy = proxied
        with SyncClient(proxy.host, proxy.port) as client:
            client.put(b"k", b"v")
            # Invert the last trailer byte of the next response.
            proxy.set_plan(NetFaultPlan(flip_nth={"s2c": 1}))
            with pytest.raises(ProtocolError, match="frame checksum mismatch"):
                client.get(b"k")
            assert proxy.injected == {"flip": 1}
            assert client._sock is None
            assert client.get(b"k") == b"v"
            assert handle.metrics.counter("server.connections_opened").value == 2

    def test_hello_is_replayed_on_the_fresh_connection(self, proxied):
        _, proxy = proxied
        with SyncClient(proxy.host, proxy.port) as client:
            client.hello()
            assert client.trace_negotiated
            proxy.set_plan(NetFaultPlan(flip_nth={"s2c": 1}))
            with pytest.raises(ProtocolError):
                client.ping()
            assert client.ping(b"again") == b"again"
            assert client.trace_negotiated

    def test_pipeline_that_fails_midway_leaves_nothing_to_misread(
        self, proxied
    ):
        _, proxy = proxied
        with SyncClient(proxy.host, proxy.port) as client:
            for i in range(50):
                client.put(b"k%02d" % i, b"v%02d" % i)
            proxy.set_plan(NetFaultPlan(flip_nth={"s2c": 1}))
            pipe = client.pipeline()
            for i in range(50):
                pipe.get(b"k%02d" % i)
            with pytest.raises(ProtocolError):
                pipe.flush()
            # The other responses of that pipeline are not waiting for
            # the next request to pick up.
            assert client._sock is None
            assert client.get(b"k07") == b"v07"
            assert client.ping(b"x") == b"x"

    def test_id_mismatch_and_oversize_length_tear_down_too(self):
        """Scripted peer: a reply to the wrong id, then a header that
        announces more than the client accepts, then an honest echo."""
        replies = [
            lambda rid: P.encode_response(P.ST_OK, rid + 1),
            lambda rid: (1 << 30).to_bytes(4, "little") + b"junk",
            lambda rid: P.encode_response(P.ST_OK, rid, b"fine"),
        ]
        listener = socket.create_server(("127.0.0.1", 0))
        accepted = []

        def serve():
            for make_reply in replies:
                conn, _ = listener.accept()
                accepted.append(conn)
                header = conn.recv(4, socket.MSG_WAITALL)
                length = P.frame_length(header)
                request = P.decode_request(
                    P.decode_frame(
                        length, conn.recv(length + 4, socket.MSG_WAITALL)
                    )
                )
                conn.sendall(make_reply(request.request_id))

        thread = threading.Thread(target=serve, name="fake-server", daemon=True)
        thread.start()
        try:
            port = listener.getsockname()[1]
            with SyncClient("127.0.0.1", port, timeout=10) as client:
                with pytest.raises(ProtocolError, match="response id"):
                    client.ping()
                assert client._sock is None
                with pytest.raises(ProtocolError, match="exceeds limit"):
                    client.ping()
                assert client._sock is None
                assert client.ping() == b"fine"
            thread.join(timeout=10)
            assert len(accepted) == 3
        finally:
            listener.close()
            for conn in accepted:
                conn.close()


class TestAsyncClient:
    def test_framing_error_closes_the_connection_and_retry_heals(
        self, proxied
    ):
        handle, proxy = proxied

        async def run():
            client = await AsyncClient.connect(
                proxy.host,
                proxy.port,
                retry_policy=RetryPolicy(
                    max_attempts=3, base_delay_s=0.01, seed=1
                ),
            )
            try:
                await client.put(b"k", b"v")
                proxy.set_plan(NetFaultPlan(flip_nth={"s2c": 1}))
                with pytest.raises(ProtocolError, match="checksum"):
                    await client.get(b"k")
                # Nobody reads the old connection: it was closed, so
                # this call fails over to a new one instead of hanging.
                value = await asyncio.wait_for(client.get(b"k"), 10)
                assert value == b"v"
                assert client.retries == 1
            finally:
                await client.close()

        asyncio.run(run())
        assert handle.metrics.counter("server.connections_opened").value == 2

    def test_without_a_policy_the_next_call_fails_instead_of_hanging(
        self, proxied
    ):
        _, proxy = proxied

        async def run():
            client = await AsyncClient.connect(proxy.host, proxy.port)
            try:
                proxy.set_plan(NetFaultPlan(flip_nth={"s2c": 1}))
                with pytest.raises(ProtocolError):
                    await client.ping()
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(client.ping(), 10)
            finally:
                await client.close()

        asyncio.run(run())

    def test_reconnect_replays_the_hello(self):
        """The hello's ack level survives the new connection: with no
        follower to ack, a write at ack level 1 stalls before the
        reconnect and after it."""
        primary = DB(MemStorage())
        config = ServerConfig(repl_ack_timeout_s=0.05)
        hub = ReplicationHub(primary)
        with ServerThread(primary, config, hub=hub) as handle:
            with FaultyProxy(handle.host, handle.port).start() as proxy:

                async def run():
                    client = await AsyncClient.connect(
                        proxy.host, proxy.port, max_retries=0,
                        retry_policy=RetryPolicy(base_delay_s=0.01, seed=1),
                    )
                    try:
                        await client.hello(ack_level=1)
                        with pytest.raises(ServerBusyError):
                            await client.put(b"k", b"v")
                        proxy.set_plan(NetFaultPlan(flip_nth={"s2c": 1}))
                        with pytest.raises(ProtocolError):
                            await client.ping()
                        with pytest.raises(ServerBusyError):
                            await client.put(b"k", b"v")
                        assert client.retries == 1
                    finally:
                        await client.close()

                asyncio.run(run())
            assert handle.metrics.counter("server.connections_opened").value == 2
            # The hello, the ping, and the hello again.
            assert handle.metrics.counter("server.op.PING.requests").value == 3

    def test_a_request_whose_write_fails_leaves_no_future_behind(
        self, proxied
    ):
        """Nobody waits for the response of a request that was never
        written; failing its future at close must log nothing."""
        handle, _ = proxied

        class BrokenWriter:
            def __init__(self, real) -> None:
                self._real = real

            def write(self, data) -> None:
                pass

            async def drain(self) -> None:
                raise ConnectionResetError("Connection lost")

            def __getattr__(self, name):
                return getattr(self._real, name)

        async def run():
            loop = asyncio.get_running_loop()
            logged = []
            loop.set_exception_handler(lambda loop, ctx: logged.append(ctx))
            reader, writer = await asyncio.open_connection(
                handle.host, handle.port
            )
            client = AsyncClient(reader, BrokenWriter(writer))
            with pytest.raises(ConnectionResetError):
                await client.get(b"k")
            await client.close()
            gc.collect()
            await asyncio.sleep(0)
            return logged

        assert asyncio.run(run()) == []


@pytest.mark.parametrize("kind", ["sync", "sync-retrying", "async"])
def test_a_closed_client_raises_client_error(proxied, kind):
    handle, proxy = proxied
    policy = RetryPolicy(base_delay_s=0.01, seed=1)
    if kind == "async":

        async def run():
            client = await AsyncClient.connect(
                proxy.host, proxy.port, retry_policy=policy
            )
            await client.put(b"k", b"v")
            await client.close()
            with pytest.raises(ClientError, match="closed"):
                await client.get(b"k")

        asyncio.run(run())
    else:
        client = SyncClient(
            proxy.host, proxy.port,
            retry_policy=policy if kind == "sync-retrying" else None,
        )
        client.put(b"k", b"v")
        client.close()
        with pytest.raises(ClientError, match="closed"):
            client.get(b"k")
    assert handle.metrics.counter("server.connections_opened").value == 1


class _CannedSocket:
    """Plays back ``data`` in ``recv_into``-sized pieces; swallows sends."""

    def __init__(self, data: bytes) -> None:
        self._data = memoryview(data)
        self.recvs = 0

    def sendall(self, frame: bytes) -> None:
        pass

    def recv_into(self, buffer) -> int:
        self.recvs += 1
        n = min(len(buffer), len(self._data))
        buffer[:n], self._data = self._data[:n], self._data[n:]
        return n

    def close(self) -> None:
        pass


def test_receive_cost_is_linear_in_bytes_received():
    """5,000 pipelined GET responses that are all there when the client
    starts reading.  Taking a frame may copy that frame; the bytes still
    waiting behind it are copied only when the buffer is rebuilt, and it
    is rebuilt only to receive more — not once per frame."""
    n = 5000
    with ServerThread(DB(MemStorage())) as handle:
        with SyncClient(handle.host, handle.port) as client:
            real = client._sock
            first_id = client._next_id + 1
            value = b"v" * 100
            canned = b"".join(
                P.encode_response(P.ST_OK, first_id + i, P.encode_lp(value))
                for i in range(n)
            )
            client._sock = sock = _CannedSocket(canned)
            # Every distinct buffer the client held, kept alive so that
            # identity means identity.
            buffers = [client._recv_buf.buf]
            recv_response = client._recv_response

            def watching(expect_id):
                response = recv_response(expect_id)
                if client._recv_buf.buf is not buffers[-1]:
                    buffers.append(client._recv_buf.buf)
                return response

            client._recv_response = watching
            try:
                pipe = client.pipeline()
                for i in range(n):
                    pipe.get(b"key%04d" % i)
                assert pipe.flush() == [value] * n
            finally:
                del client._recv_response
                client._sock = real
    assert sock.recvs >= 3  # the responses did not fit one recv
    assert len(buffers) <= sock.recvs + 1
    rebuilt = sum(len(buf) for buf in buffers)
    assert rebuilt <= 2 * len(canned)  # + one copy per frame taken: <= 3x
