"""Sync and asyncio clients for the networked KV service.

Both clients speak the frame protocol of :mod:`repro.server.protocol`
and share five behaviours:

* **Pipelining** — many requests can be in flight on one connection;
  the server answers in request order, and the echoed request id is
  asserted on receipt.  The sync client exposes an explicit
  :meth:`SyncClient.pipeline` batch; the async client pipelines
  naturally whenever calls are issued concurrently
  (``asyncio.gather(c.put(...), c.get(...))``).
* **Backpressure handling** — a ``STALLED`` response (the server
  refusing a write while compaction catches up, paper §I) is retried
  with the server-suggested delay, a bounded number of times, before
  :class:`ServerBusyError` is raised to the caller.
* **Connection resilience** (opt-in) — pass a
  :class:`repro.server.retry.RetryPolicy` and connection failures
  (refused, reset, cut mid-frame, timed out) are retried with seeded
  jittered backoff, transparently reconnecting.  A hello sent earlier
  is sent again first on the new connection, so the write ack level
  and the trace flag survive it.  Reads retry freely; writes follow
  the policy's idempotence rule.  A
  :class:`repro.server.retry.CircuitBreaker` (shared per endpoint, sync
  client) makes a down server fail fast instead of burning a connect
  timeout per call.
* **Typed errors** — protocol violations raise
  :class:`ProtocolError`, engine-side failures raise
  :class:`ServerError`, a call on a closed client raises
  :class:`ClientError`; a missing key is simply ``None``.
* **Distributed tracing** (sync client) — pass an enabled
  :class:`repro.obs.Tracer` and, once the server has answered
  :meth:`SyncClient.hello`, every request records a ``client:<OP>``
  span and carries its ``(trace_id, span_id)`` in the frame head, so
  the server's dispatch/DB/replication spans nest under it in a merged
  Chrome trace (``repro.obs.merge_chrome_traces``).

Every op is written once, in :class:`_Ops`, as its opcode, its request
body and a decoder of its result; each class supplies only
``_request``: :class:`SyncClient` sends and waits, :class:`AsyncClient`
returns an awaitable, :class:`SyncPipeline` queues.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from collections import deque
from typing import Callable, Optional

from ..codec.varint import decode_varint64
from ..obs import NULL_TRACER, current_trace_context, new_trace_id, trace_context
from . import protocol as P
from .protocol import ProtocolError
from .retry import CircuitBreaker, CircuitOpenError, RetryPolicy

__all__ = [
    "ClientError",
    "ServerError",
    "ServerBusyError",
    "ProtocolError",
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryPolicy",
    "SyncClient",
    "AsyncClient",
]

#: Default bound on STALLED retries before giving up.
DEFAULT_MAX_RETRIES = 20


class ClientError(RuntimeError):
    """Base class for client-visible request failures."""


class ServerError(ClientError):
    """The server reported BAD_REQUEST / SERVER_ERROR / SHUTTING_DOWN."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"{P.STATUS_NAMES.get(status, status)}: {message}")
        self.status = status


class ServerBusyError(ClientError):
    """Writes kept being refused with STALLED past the retry budget."""


def _error_text(body: bytes) -> str:
    try:
        message, _ = P.decode_lp(body)
        return message.decode(errors="backslashreplace")
    except ProtocolError:
        return ""


def _result(response: P.Response, decode: Callable[[bytes], object]):
    """OK → ``decode(body)``; NOT_FOUND → None; any other status raises.
    (STALLED never gets here: the clients back off and resend it.)"""
    if response.status == P.ST_OK:
        return decode(response.body)
    if response.status == P.ST_NOT_FOUND:
        return None
    raise ServerError(response.status, _error_text(response.body))


def _matched(response: P.Response, expect_id: int) -> P.Response:
    if response.request_id != expect_id:
        raise ProtocolError(
            f"response id {response.request_id} != request id {expect_id}"
        )
    return response


# Result decoders, one per shape of OK body.
def _as_is(body: bytes) -> bytes:
    return body


def _nothing(body: bytes) -> None:
    return None


def _lp(body: bytes) -> bytes:
    return P.decode_lp(body)[0]


def _varint(body: bytes) -> int:
    return decode_varint64(body, 0)[0]


def _json(body: bytes):
    return json.loads(_lp(body))


def _metrics_json(body: bytes) -> dict:
    payload = _json(body)
    return payload.get("metrics", payload)


def _text(body: bytes) -> str:
    return _lp(body).decode()


class _Ops:
    """The op set.  ``self._request(opcode, body, decode)`` returns
    ``decode(OK body)`` (``None`` for NOT_FOUND), an awaitable of it, or
    nothing when the request is only queued."""

    def ping(self, payload: bytes = b""):
        """Echo ``payload``."""
        return self._request(P.OP_PING, payload, _as_is)

    def get(self, key: bytes):
        """The value of ``key``, or None."""
        return self._request(P.OP_GET, P.encode_lp(key), _lp)

    def put(self, key: bytes, value: bytes):
        return self._request(
            P.OP_PUT, P.encode_lp(key) + P.encode_lp(value), _nothing
        )

    def delete(self, key: bytes):
        return self._request(P.OP_DELETE, P.encode_lp(key), _nothing)

    def batch(self, ops):
        """Apply [("put", k, v) | ("delete", k), ...] atomically; returns
        the number of ops applied."""
        return self._request(P.OP_BATCH, P.encode_batch_body(ops), _varint)

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: int = 0,
        reverse: bool = False,
    ):
        """Range read → ``(pairs, truncated_by_server_cap)``."""
        body = P.encode_scan_body(start, end, limit, reverse)
        return self._request(P.OP_SCAN, body, P.decode_scan_result)

    def stats(self):
        """Server + engine counters as a dict (see KVServer._stats_dict)."""
        return self._request(P.OP_STATS, b"", _json)

    def compact(self):
        """Trigger a full manual compaction; returns compactions run."""
        return self._request(P.OP_COMPACT, b"", _varint)

    def flush(self):
        """Force the server's memtable to disk."""
        return self._request(P.OP_FLUSH, b"", _nothing)

    def promote(self, min_epoch: int = 0):
        """Promote the serving node to primary, online.

        Returns the node's new replication epoch.  ``min_epoch`` fences
        deterministically: the node's epoch becomes at least that value,
        and a node already at or past it acks without bumping again
        (idempotent retry).
        """
        body = P.encode_body(P.PROMOTE, min_epoch)
        return self._request(P.OP_PROMOTE, body, lambda ok: P.decode_body(P.PROMOTE_ACK, ok)[0])

    def metrics(self, fmt: str = "json"):
        """Scrape the server's live metrics.

        ``fmt="prom"`` returns Prometheus exposition text (str);
        ``fmt="json"`` returns the parsed registry snapshot dict
        (``{"counters": ..., "gauges": ..., "histograms": ...}``).
        """
        if fmt == "prom":
            body = P.encode_body(P.METRICS, P.METRICS_FMT_PROMETHEUS)
            return self._request(P.OP_METRICS, body, _text)
        body = P.encode_body(P.METRICS, P.METRICS_FMT_JSON)
        return self._request(P.OP_METRICS, body, _metrics_json)

    def trace_dump(self):
        """The server's Chrome trace (its tracer must be enabled)."""
        return self._request(P.OP_TRACE, b"", _json)


class _Client(_Ops):
    """What both clients share beyond the op set: the hello and its
    replay, the STALLED back-off and the retry policy's resend decision.
    Each decision is a return value; the caller does the waiting, with
    ``time.sleep`` or ``asyncio.sleep``."""

    _metrics = None  # a registry counting retries (sync client)

    def __init__(
        self, max_retries: int, retry_policy: Optional[RetryPolicy]
    ) -> None:
        self.max_retries = max_retries
        self.retry_policy = retry_policy
        self._jitter = retry_policy.rng() if retry_policy is not None else None
        self.retries = 0  # observable connection-retry count
        self.stall_retries = 0  # observable back-off count
        #: True once the server answered the hello; every server that
        #: does takes trace context.
        self.trace_negotiated = False
        self._hello: Optional[bytes] = None  # replayed on a new connection
        self._next_id = 0
        self._closed = False

    def hello(self, ack_level: Optional[int] = None):
        """Negotiate the protocol version over PING.

        Returns the server's ``(major, minor)``; a reply that is not a
        hello answer raises :class:`ProtocolError`.  ``ack_level``
        optionally pins how many follower acks writes on this
        connection must collect (-1 = majority) — ignored by servers
        without a replication hub.  A reconnect sends the same hello
        again before anything else.
        """
        self._hello = P.encode_hello_body(ack_level=ack_level)
        return self._request(P.OP_PING, self._hello, self._answered)

    def _answered(self, body: bytes) -> tuple[int, int]:
        if not body.startswith(P.HELLO_MAGIC):
            raise P.ProtocolError("not a hello reply: no hello magic")
        major, minor, marker = P.decode_body(P.HELLO_ACK, body, len(P.HELLO_MAGIC))
        if marker != P.HELLO_ACK_MARKER:
            raise P.ProtocolError("not a hello reply: no reply marker")
        self.trace_negotiated = True
        return major, minor

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    def _connect_timeout(self, default: Optional[float]) -> Optional[float]:
        policy = self.retry_policy
        return policy.connect_timeout_s if policy is not None else default

    def _stall_backoff(self, response: P.Response, stalls: int) -> float:
        """Seconds to wait before resending a request refused with
        STALLED for the ``stalls``-th time; past the budget, raise."""
        self.stall_retries += 1
        if stalls > self.max_retries:
            raise ServerBusyError(
                f"write refused {stalls} times (compaction stall)"
            )
        try:
            return decode_varint64(response.body, 0)[0] / 1e3
        except ValueError:
            return 0.025

    def _retry_backoff(
        self, opcode: int, attempt: int, sent: bool
    ) -> Optional[float]:
        """Seconds to wait before retry ``attempt`` (1-based) after a
        connection failure, or None when the failure is the caller's.
        A write whose frame may have reached the server is only resent
        when the policy allows (see :class:`RetryPolicy`)."""
        policy = self.retry_policy
        if (
            policy is None
            or self._closed
            or attempt >= policy.max_attempts
            or (sent and opcode in P.WRITE_OPCODES and not policy.resend_writes)
        ):
            return None
        self.retries += 1
        self._count("client.retry")
        return policy.backoff_s(attempt, self._jitter.uniform())


# ------------------------------------------------------------ sync
class SyncClient(_Client):
    """Blocking socket client.

    Not thread-safe: use one client per thread (the load generator in
    :mod:`repro.bench.netbench` does exactly that).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        max_retries: int = DEFAULT_MAX_RETRIES,
        max_frame_bytes: int = P.MAX_FRAME_BYTES,
        tracer=None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics=None,
    ) -> None:
        super().__init__(max_retries, retry_policy)
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame_bytes = max_frame_bytes
        self.breaker = breaker
        self._metrics = metrics
        self._sock: Optional[socket.socket] = None
        self._recv_buf: Optional[P.FrameReader] = None  # per connection
        # `is None`, not truthiness: an enabled-but-empty Tracer has
        # len() == 0 and would be falsy.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._connect()

    # ------------------------------------------------------- transport
    def _connect(self) -> None:
        """(Re)establish the connection, hello first if one was sent."""
        if self._closed:
            raise ClientError("client is closed")
        if self.breaker is not None and not self.breaker.allow():
            self._count("client.circuit_open")
            raise CircuitOpenError(
                f"circuit open for {self.host}:{self.port}"
            )
        try:
            sock = socket.create_connection(
                (self.host, self.port),
                timeout=self._connect_timeout(self.timeout),
            )
        except OSError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._recv_buf = P.FrameReader(self.max_frame_bytes)
        if self.breaker is not None:
            self.breaker.record_success()
        if self._hello is not None:
            request_id = self._take_id()
            sock.sendall(P.encode_request(P.OP_PING, request_id, self._hello))
            _result(self._recv_response(request_id), self._answered)

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        self._sock = None
        self._recv_buf = None

    def _recv_response(self, expect_id: int) -> P.Response:
        payload = self._recv_buf.read_frame(self._sock)
        return _matched(P.decode_response(payload), expect_id)

    def _request(self, opcode: int, body: bytes, decode: Callable, trace=()):
        """One request, resent while the server answers STALLED.

        With tracing negotiated and enabled, the whole exchange (stall
        retries included) is one ``client:<OP>`` span whose span id
        rides in the request head as ``trace``.
        """
        if not trace and self.trace_negotiated and self.tracer.enabled:
            return self._traced(opcode, body, decode)
        stalls = 0
        while True:
            response = self._exchange(opcode, body, trace)
            if response.status != P.ST_STALLED:
                return _result(response, decode)
            stalls += 1
            time.sleep(self._stall_backoff(response, stalls))

    def _traced(self, opcode: int, body: bytes, decode: Callable):
        ctx = current_trace_context()
        trace_id = ctx[0] if ctx is not None else new_trace_id()
        with trace_context(trace_id, ctx[1] if ctx is not None else 0):
            name = P.OPCODE_NAMES[opcode]
            with self.tracer.span(f"client:{name}", cat="client"):
                # Inside the span the context's span id is *our* span:
                # the server's dispatch span becomes our child.
                return self._request(
                    opcode, body, decode, current_trace_context()
                )

    def _exchange(self, opcode: int, body: bytes, trace) -> P.Response:
        """One request/response over the socket, healing connection
        failures per the retry policy (no policy: they raise)."""
        attempt = 0
        while True:
            sent = connected = False
            try:
                if self._sock is None:
                    self._connect()  # breaker-checked; may raise
                connected = True
                request_id = self._take_id()
                self._sock.sendall(
                    P.encode_request(opcode, request_id, body, *trace)
                )
                sent = True
                response = self._recv_response(request_id)
            except CircuitOpenError:
                raise  # fail fast: no backoff against a known-down node
            except ProtocolError:
                # Some of a frame has been consumed, or a reply to
                # another request is still coming: the stream cannot be
                # resynchronised (the server drops the connection for
                # the same reason).  The next call reconnects.
                self._teardown()
                raise
            except OSError:
                self._teardown()
                # _connect records its own breaker failures.
                if connected and self.breaker is not None:
                    self.breaker.record_failure()
                attempt += 1
                delay = self._retry_backoff(opcode, attempt, sent)
                if delay is None:
                    raise
                time.sleep(delay)
                continue
            return response

    # ------------------------------------------------------ pipelining
    def pipeline(self) -> "SyncPipeline":
        """Batch several requests into one socket round trip::

            with client.pipeline() as p:
                p.put(b"a", b"1")
                p.get(b"a")
            results = p.results    # [None, b"1"]
        """
        return SyncPipeline(self)

    def close(self) -> None:
        """Close the connection; every later call raises ClientError."""
        self._closed = True
        self._teardown()

    def __enter__(self) -> "SyncClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SyncPipeline:
    """Deferred requests flushed in one write, read back in order.

    STALLED responses inside a pipeline are retried individually after
    the whole pipeline has been read (order within the pipeline is
    preserved in ``results``).
    """

    ping, get, put, delete = _Ops.ping, _Ops.get, _Ops.put, _Ops.delete

    def __init__(self, client: SyncClient) -> None:
        self._client = client
        self._queued: list[tuple[int, bytes, Callable]] = []
        self.results: list = []

    def _request(self, opcode: int, body: bytes, decode: Callable) -> None:
        self._queued.append((opcode, body, decode))

    def flush(self) -> list:
        """Send every queued request, collect responses in order."""
        client = self._client
        if not self._queued:
            return self.results
        if client._sock is None:
            client._connect()
        ids = [client._take_id() for _ in self._queued]
        try:
            client._sock.sendall(
                b"".join(
                    P.encode_request(opcode, request_id, body)
                    for request_id, (opcode, body, _) in zip(ids, self._queued)
                )
            )
            responses = [client._recv_response(request_id) for request_id in ids]
        except (ProtocolError, OSError):
            # The responses not read yet would answer the client's next
            # request: drop the connection with them.
            client._teardown()
            raise
        results = []
        for (opcode, body, decode), response in zip(self._queued, responses):
            if response.status == P.ST_STALLED:
                time.sleep(client._stall_backoff(response, 1))
                results.append(client._request(opcode, body, decode))
            else:
                results.append(_result(response, decode))
        self._queued.clear()
        self.results.extend(results)
        return self.results

    def __enter__(self) -> "SyncPipeline":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.flush()


# ----------------------------------------------------------- asyncio
class AsyncClient(_Client):
    """Asyncio client with transparent pipelining.

    Every request is written immediately and a future is parked in a
    FIFO; one reader task resolves futures as in-order responses
    arrive.  Concurrent callers therefore share the connection with
    full pipelining and zero extra machinery::

        client = await AsyncClient.connect(host, port)
        await asyncio.gather(*(client.put(k, v) for k, v in items))
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_retries: int = DEFAULT_MAX_RETRIES,
        max_frame_bytes: int = P.MAX_FRAME_BYTES,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(max_retries, retry_policy)
        self.max_frame_bytes = max_frame_bytes
        # Reconnection needs the address; only set by connect(), so a
        # client built from raw streams never retries connections.
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._conn_timeout: Optional[float] = None
        self._conn_gen = 0
        self._conn_lock = asyncio.Lock()
        self._pending: deque[tuple[int, asyncio.Future]] = deque()
        self._attach(reader, writer)

    @classmethod
    async def connect(
        cls, host: str, port: int, timeout: Optional[float] = 30.0, **kwargs
    ) -> "AsyncClient":
        # wait_for bounds connection establishment: an unresponsive
        # (e.g. black-holed) endpoint must not hang the caller forever.
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        client = cls(reader, writer, **kwargs)
        client._host, client._port, client._conn_timeout = host, port, timeout
        return client

    # ------------------------------------------------------- transport
    def _attach(self, reader, writer) -> None:
        self._reader, self._writer = reader, writer
        self._reader_task = asyncio.create_task(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                payload = await P.read_frame(self._reader, self.max_frame_bytes)
                response = P.decode_response(payload)
                if not self._pending:
                    raise ProtocolError("unsolicited response frame")
                _matched(response, self._pending[0][0])
                _, future = self._pending.popleft()
                if not future.done():  # a cancelled caller's is
                    future.set_result(response)
        except ConnectionError as exc:
            self._fail_pending(ConnectionError(f"connection lost: {exc}"))
        except ProtocolError as exc:
            # Nobody reads this connection any more: close it, so the
            # next call fails like on any lost connection (and heals
            # through the retry policy) instead of waiting forever.
            self._writer.close()
            self._fail_pending(exc)

    def _fail_pending(self, exc: Exception) -> None:
        while self._pending:
            _, future = self._pending.popleft()
            if not future.done():
                future.set_exception(exc)

    def _send(self, opcode: int, body: bytes) -> asyncio.Future:
        """Write one request; its response will resolve the future."""
        if self._closed:
            raise ClientError("client is closed")
        if self._reader_task.done():
            raise ConnectionError("connection lost")  # not sent
        request_id = self._take_id()
        future = asyncio.get_running_loop().create_future()
        self._pending.append((request_id, future))
        self._writer.write(P.encode_request(opcode, request_id, body))
        return future

    async def _disconnect(self, exc: Exception) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._fail_pending(exc)
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:  # covers ConnectionError
            pass

    async def _reconnect(self, gen: int) -> None:
        """Replace the dead connection, hello first if one was sent
        (no-op if another caller already did: ``gen`` is the connection
        generation the caller saw fail)."""
        async with self._conn_lock:
            if self._closed:
                raise ClientError("client is closed")
            if self._conn_gen != gen:
                return
            await self._disconnect(ConnectionError("reconnecting"))
            self._attach(*await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port),
                self._connect_timeout(self._conn_timeout),
            ))
            self._conn_gen += 1
            if self._hello is not None:
                future = self._send(P.OP_PING, self._hello)
                _result(await self._response(future), self._answered)

    async def _response(self, future: asyncio.Future) -> P.Response:
        """Wait for the write behind ``future`` to drain, then for it."""
        try:
            await self._writer.drain()
        except BaseException:
            future.cancel()  # nobody will wait for its response
            raise
        return await future

    async def _request(self, opcode: int, body: bytes, decode: Callable):
        stalls = 0
        while True:
            response = await self._exchange(opcode, body)
            if response.status != P.ST_STALLED:
                return _result(response, decode)
            stalls += 1
            await asyncio.sleep(self._stall_backoff(response, stalls))

    async def _exchange(self, opcode: int, body: bytes) -> P.Response:
        """One request/response, healing connection failures per the
        retry policy (no policy, or no address to dial: they raise)."""
        attempt = 0
        gen = self._conn_gen
        while True:
            sent = False
            try:
                if attempt:
                    await self._reconnect(gen)
                    gen = self._conn_gen
                future = self._send(opcode, body)
                sent = True
                return await self._response(future)
            except OSError:
                if self._host is None:  # built from raw streams: no redial
                    raise
                attempt += 1
                delay = self._retry_backoff(opcode, attempt, sent)
                if delay is None:
                    raise
                await asyncio.sleep(delay)

    async def close(self) -> None:
        """Close the connection; every later call raises ClientError."""
        if self._closed:
            return
        self._closed = True
        await self._disconnect(ClientError("client closed"))

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
