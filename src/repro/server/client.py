"""Sync and asyncio clients for the networked KV service.

Both clients speak the frame protocol of :mod:`repro.server.protocol`
and share three behaviours:

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
  jittered backoff, transparently reconnecting and re-running the
  hello negotiation so the ack level and trace flag survive the new
  connection.  Reads retry freely; writes follow the policy's
  idempotence rule.  A :class:`repro.server.retry.CircuitBreaker`
  (shared per endpoint) makes a down server fail fast instead of
  burning a connect timeout per call.
* **Typed errors** — protocol violations raise
  :class:`ProtocolError`, engine-side failures raise
  :class:`ServerError`; a missing key is simply ``None``.
* **Distributed tracing** — pass an enabled
  :class:`repro.obs.Tracer` and, once :meth:`SyncClient.hello`
  negotiates protocol ≥ 2.1, every request records a ``client:<OP>``
  span and carries its ``(trace_id, span_id)`` in the frame head, so
  the server's dispatch/DB/replication spans nest under it in a merged
  Chrome trace (``repro.obs.merge_chrome_traces``).
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from collections import deque
from typing import Optional

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


def _stall_delay_s(body: bytes) -> float:
    try:
        from ..codec.varint import decode_varint64

        retry_ms, _ = decode_varint64(body, 0)
        return retry_ms / 1e3
    except ValueError:
        return 0.025


class _ResponseHandler:
    """Shared decode of response frames into python values."""

    @staticmethod
    def unwrap(response: P.Response):
        """OK/NOT_FOUND → body/None; errors → raise.  STALLED is
        handled by the retry loops before this point."""
        if response.status == P.ST_OK:
            return response.body
        if response.status == P.ST_NOT_FOUND:
            return None
        raise ServerError(response.status, _error_text(response.body))

    @staticmethod
    def result(opcode: int, response: P.Response):
        """Opcode-aware decode: GET → value bytes, PUT/DELETE → None,
        PING → echoed payload, NOT_FOUND → None."""
        body = _ResponseHandler.unwrap(response)
        if body is None:
            return None
        if opcode == P.OP_GET:
            return P.decode_lp(body)[0]
        if opcode in (P.OP_PUT, P.OP_DELETE):
            return None
        return body


# ------------------------------------------------------------ sync
class SyncClient:
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
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_frame_bytes = max_frame_bytes
        self.retry_policy = retry_policy
        self.breaker = breaker
        self._metrics = metrics
        self._jitter = retry_policy.rng() if retry_policy is not None else None
        self.retries = 0  # observable connection-retry count
        self._hello_done = False
        self._hello_ack_level: Optional[int] = None
        self._sock: Optional[socket.socket] = None
        # Received bytes not yet handed out: _recv_buf from _recv_pos
        # on.  Taking a frame moves the offset; the buffer is rebuilt
        # only when more must be received, so N pipelined responses
        # arriving together cost O(bytes), not O(N * bytes).
        self._recv_buf = b""
        self._recv_pos = 0
        self._next_id = 0
        self.stall_retries = 0  # observable back-off count
        # `is None`, not truthiness: an enabled-but-empty Tracer has
        # len() == 0 and would be falsy.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: True after hello() confirms the server speaks ≥ 2.1; trace
        #: ids are only put on the wire once this is set, so a traced
        #: client still talks cleanly to older servers.
        self.trace_negotiated = False
        self._connect()

    # ------------------------------------------------------- transport
    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc()

    def _connect(self) -> None:
        """(Re)establish the connection; renegotiates a done hello so
        per-connection state (ack level, trace flag) carries over."""
        if self.breaker is not None and not self.breaker.allow():
            self._count("client.circuit_open")
            raise CircuitOpenError(
                f"circuit open for {self.host}:{self.port}"
            )
        connect_timeout = (
            self.retry_policy.connect_timeout_s
            if self.retry_policy is not None
            else self.timeout
        )
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=connect_timeout
            )
        except OSError:
            if self.breaker is not None:
                self.breaker.record_failure()
            raise
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._drop_received()
        if self.breaker is not None:
            self.breaker.record_success()
        if self._hello_done:
            request_id = self._take_id()
            self._send(
                P.encode_request(
                    P.OP_PING,
                    request_id,
                    P.encode_hello_body(ack_level=self._hello_ack_level),
                )
            )
            body = _ResponseHandler.unwrap(self._recv_response(request_id))
            negotiated = P.decode_hello_ack(body)
            version = negotiated if negotiated is not None else (1, 0)
            self.trace_negotiated = version >= (2, 1)

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        self._sock = None
        self._drop_received()

    def _drop_received(self) -> None:
        self._recv_buf = b""
        self._recv_pos = 0

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _send(self, frame: bytes) -> None:
        self._sock.sendall(frame)

    def _recv_exact(self, n: int) -> bytes:
        buf, pos = self._recv_buf, self._recv_pos
        end = pos + n
        if end > len(buf):
            # Keep the unread tail (less than one frame), receive until
            # there is enough, join once: a large frame arriving in
            # many pieces is copied once, not once per piece.
            have = len(buf) - pos
            parts = [buf[pos:]] if have else []
            while have < n:
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                parts.append(chunk)
                have += len(chunk)
            buf = self._recv_buf = b"".join(parts)
            pos, end = 0, n
        self._recv_pos = end
        return buf[pos:end]

    def _recv_response(self, expect_id: int) -> P.Response:
        length = P.frame_length(self._recv_exact(4), self.max_frame_bytes)
        payload = P.decode_frame(length, self._recv_exact(length + 4))
        response = P.decode_response(payload)
        if response.request_id != expect_id:
            raise ProtocolError(
                f"response id {response.request_id} != request id {expect_id}"
            )
        return response

    def _call(self, opcode: int, body: bytes = b"") -> P.Response:
        """One request/response, retrying STALLED with back-off.

        With tracing negotiated and enabled, the whole exchange
        (including stall retries) is one ``client:<OP>`` span whose
        span id rides in the request head.
        """
        if not (self.trace_negotiated and self.tracer.enabled):
            return self._call_raw(opcode, body, None, None)
        ctx = current_trace_context()
        trace_id = ctx[0] if ctx is not None else new_trace_id()
        with trace_context(trace_id, ctx[1] if ctx is not None else 0):
            name = P.OPCODE_NAMES.get(opcode, hex(opcode))
            with self.tracer.span(f"client:{name}", cat="client"):
                # Inside the span the context's span id is *our* span:
                # the server's dispatch span becomes our child.
                _, span_id = current_trace_context()
                return self._call_raw(opcode, body, trace_id, span_id)

    def _call_raw(
        self,
        opcode: int,
        body: bytes,
        trace_id: Optional[int],
        span_id: Optional[int],
    ) -> P.Response:
        attempts = 0
        while True:
            response = self._exchange(opcode, body, trace_id, span_id)
            if response.status != P.ST_STALLED:
                return response
            attempts += 1
            self.stall_retries += 1
            if attempts > self.max_retries:
                raise ServerBusyError(
                    f"write refused {attempts} times (compaction stall)"
                )
            time.sleep(_stall_delay_s(response.body))

    def _exchange(
        self,
        opcode: int,
        body: bytes,
        trace_id: Optional[int],
        span_id: Optional[int],
    ) -> P.Response:
        """One request/response over the socket, healing connection
        failures per the retry policy (no policy = old raise-through
        behaviour).  Reads retry freely; a write whose frame may have
        reached the server only retries when the policy allows resends
        (see :class:`repro.server.retry.RetryPolicy`)."""
        attempt = 0
        while True:
            sent = connected = False
            try:
                if self._sock is None:
                    self._connect()  # breaker-checked; may raise
                connected = True
                request_id = self._take_id()
                self._send(
                    P.encode_request(
                        opcode, request_id, body,
                        trace_id=trace_id, span_id=span_id,
                    )
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
                policy = self.retry_policy
                retryable = (
                    policy is not None
                    and attempt + 1 < policy.max_attempts
                    and (
                        opcode not in P.WRITE_OPCODES
                        or not sent
                        or policy.resend_writes
                    )
                )
                if not retryable:
                    raise
                attempt += 1
                self.retries += 1
                self._count("client.retry")
                time.sleep(policy.backoff_s(attempt, self._jitter.uniform()))
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return response

    # ------------------------------------------------------------- ops
    def ping(self, payload: bytes = b"") -> bytes:
        return _ResponseHandler.unwrap(self._call(P.OP_PING, payload))

    def hello(self, ack_level: Optional[int] = None) -> tuple[int, int]:
        """Negotiate the protocol version over PING.

        Returns the server's ``(major, minor)``; a pre-versioning
        server echoes the hello verbatim and is reported as ``(1, 0)``.
        ``ack_level`` optionally pins how many follower acks writes on
        this connection must collect (-1 = majority) — ignored by
        servers without a replication hub.
        """
        # Remember the negotiation so a policy-driven reconnect can
        # replay it: ack-gated durability must survive the new socket.
        self._hello_done = True
        self._hello_ack_level = ack_level
        body = self.ping(P.encode_hello_body(ack_level=ack_level))
        negotiated = P.decode_hello_ack(body)
        version = negotiated if negotiated is not None else (1, 0)
        self.trace_negotiated = version >= (2, 1)
        return version

    def get(self, key: bytes) -> Optional[bytes]:
        return _ResponseHandler.result(
            P.OP_GET, self._call(P.OP_GET, P.encode_lp(key))
        )

    def put(self, key: bytes, value: bytes) -> None:
        _ResponseHandler.unwrap(
            self._call(P.OP_PUT, P.encode_lp(key) + P.encode_lp(value))
        )

    def delete(self, key: bytes) -> None:
        _ResponseHandler.unwrap(self._call(P.OP_DELETE, P.encode_lp(key)))

    def batch(self, ops) -> int:
        """Apply [("put", k, v) | ("delete", k), ...] atomically."""
        body = P.encode_batch_body(ops)
        result = _ResponseHandler.unwrap(self._call(P.OP_BATCH, body))
        from ..codec.varint import decode_varint64

        return decode_varint64(result, 0)[0]

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: int = 0,
        reverse: bool = False,
    ) -> tuple[list[tuple[bytes, bytes]], bool]:
        """Range read → ``(pairs, truncated_by_server_cap)``."""
        body = P.encode_scan_body(start, end, limit, reverse)
        result = _ResponseHandler.unwrap(self._call(P.OP_SCAN, body))
        return P.decode_scan_result(result)

    def stats(self) -> dict:
        """Server + engine counters as a dict (see KVServer._stats_dict)."""
        import json

        result = _ResponseHandler.unwrap(self._call(P.OP_STATS))
        blob, _ = P.decode_lp(result)
        return json.loads(blob)

    def compact(self) -> int:
        """Trigger a full manual compaction; returns compactions run."""
        result = _ResponseHandler.unwrap(self._call(P.OP_COMPACT))
        from ..codec.varint import decode_varint64

        return decode_varint64(result, 0)[0]

    def flush(self) -> None:
        """Force the server's memtable to disk (protocol ≥ 2 only)."""
        _ResponseHandler.unwrap(self._call(P.OP_FLUSH))

    def promote(self, min_epoch: int = 0) -> int:
        """Promote the serving node to primary, online (protocol ≥ 2.2).

        Returns the node's new replication epoch.  ``min_epoch`` fences
        deterministically: the node's epoch becomes at least that value,
        and a node already at or past it acks without bumping again
        (idempotent retry).
        """
        result = _ResponseHandler.unwrap(
            self._call(P.OP_PROMOTE, P.encode_promote_body(min_epoch))
        )
        return P.decode_promote_ack(result)

    # ------------------------------------------------------- telemetry
    def metrics(self, fmt: str = "json"):
        """Scrape the server's live metrics (protocol ≥ 2.1).

        ``fmt="prom"`` returns Prometheus exposition text (str);
        ``fmt="json"`` returns the parsed registry snapshot dict
        (``{"counters": ..., "gauges": ..., "histograms": ...}``).
        """
        wire = (
            P.METRICS_FMT_PROMETHEUS if fmt == "prom" else P.METRICS_FMT_JSON
        )
        result = _ResponseHandler.unwrap(
            self._call(P.OP_METRICS, P.encode_metrics_body(wire))
        )
        blob, _ = P.decode_lp(result)
        if fmt == "prom":
            return blob.decode()
        payload = json.loads(blob)
        return payload.get("metrics", payload)

    def trace_dump(self) -> dict:
        """The server's Chrome trace (its tracer must be enabled)."""
        result = _ResponseHandler.unwrap(self._call(P.OP_TRACE))
        blob, _ = P.decode_lp(result)
        return json.loads(blob)

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
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

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

    def __init__(self, client: SyncClient) -> None:
        self._client = client
        self._queued: list[tuple[int, int, bytes]] = []  # (opcode, id, frame-body)
        self.results: list = []

    # Each queue method mirrors the SyncClient call of the same name.
    def ping(self, payload: bytes = b"") -> None:
        self._queue(P.OP_PING, payload)

    def get(self, key: bytes) -> None:
        self._queue(P.OP_GET, P.encode_lp(key))

    def put(self, key: bytes, value: bytes) -> None:
        self._queue(P.OP_PUT, P.encode_lp(key) + P.encode_lp(value))

    def delete(self, key: bytes) -> None:
        self._queue(P.OP_DELETE, P.encode_lp(key))

    def _queue(self, opcode: int, body: bytes) -> None:
        request_id = self._client._take_id()
        self._queued.append((opcode, request_id, body))

    def flush(self) -> list:
        """Send every queued request, collect responses in order."""
        client = self._client
        if not self._queued:
            return self.results
        if client._sock is None:
            client._connect()
        try:
            client._send(
                b"".join(
                    P.encode_request(opcode, request_id, body)
                    for opcode, request_id, body in self._queued
                )
            )
            responses = [
                client._recv_response(request_id)
                for _, request_id, _ in self._queued
            ]
        except (ProtocolError, OSError):
            # The responses not read yet would answer the client's next
            # request: drop the connection with them.
            client._teardown()
            raise
        retry: list[tuple[int, int, bytes]] = []
        slots: list = []
        time_hint = 0.025
        for (opcode, _, body), response in zip(self._queued, responses):
            if response.status == P.ST_STALLED:
                retry.append((opcode, len(slots), body))
                slots.append(None)
                time_hint = _stall_delay_s(response.body)
            else:
                slots.append(_ResponseHandler.result(opcode, response))
        for opcode, slot, body in retry:
            time.sleep(time_hint)
            slots[slot] = _ResponseHandler.result(
                opcode, client._call(opcode, body)
            )
        self._queued.clear()
        self.results.extend(slots)
        return self.results

    def __enter__(self) -> "SyncPipeline":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.flush()


# ----------------------------------------------------------- asyncio
class AsyncClient:
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
        self._reader = reader
        self._writer = writer
        self.max_retries = max_retries
        self.max_frame_bytes = max_frame_bytes
        self.retry_policy = retry_policy
        self._jitter = retry_policy.rng() if retry_policy is not None else None
        self.retries = 0  # observable connection-retry count
        # Reconnection needs the address; only set by connect(), so a
        # client built from raw streams never retries connections.
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._conn_timeout: Optional[float] = None
        self._conn_gen = 0
        self._conn_lock = asyncio.Lock()
        self._next_id = 0
        self._pending: deque[tuple[int, asyncio.Future]] = deque()
        self._reader_task = asyncio.create_task(self._read_loop())
        self._closed = False
        self.stall_retries = 0

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
    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(4)
                length = P.frame_length(header, self.max_frame_bytes)
                payload = P.decode_frame(
                    length, await self._reader.readexactly(length + 4)
                )
                response = P.decode_response(payload)
                if not self._pending:
                    raise ProtocolError("unsolicited response frame")
                expect_id, future = self._pending.popleft()
                if response.request_id != expect_id:
                    raise ProtocolError(
                        f"response id {response.request_id} != {expect_id}"
                    )
                if not future.cancelled():
                    future.set_result(response)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            self._fail_pending(
                ConnectionError(f"connection lost: {exc}")
            )
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

    async def _call(self, opcode: int, body: bytes = b"") -> P.Response:
        attempt = 0
        while True:
            try:
                return await self._call_once(opcode, body)
            except (OSError, asyncio.IncompleteReadError):
                # Once written the frame may have reached the server, so
                # a write only retries when the policy allows resends.
                policy = self.retry_policy
                retryable = (
                    policy is not None
                    and self._host is not None
                    and not self._closed
                    and attempt + 1 < policy.max_attempts
                    and (
                        opcode not in P.WRITE_OPCODES or policy.resend_writes
                    )
                )
                if not retryable:
                    raise
                gen = self._conn_gen
                attempt += 1
                self.retries += 1
                await asyncio.sleep(
                    policy.backoff_s(attempt, self._jitter.uniform())
                )
                await self._reconnect(gen)

    async def _reconnect(self, gen: int) -> None:
        """Replace the dead connection (no-op if another caller already
        did: ``gen`` is the connection generation the caller saw fail)."""
        async with self._conn_lock:
            if self._closed:
                raise ClientError("client is closed")
            if self._conn_gen != gen:
                return
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._fail_pending(ConnectionError("reconnecting"))
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            timeout = (
                self.retry_policy.connect_timeout_s
                if self.retry_policy is not None
                else self._conn_timeout
            )
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self._host, self._port), timeout
            )
            self._reader_task = asyncio.create_task(self._read_loop())
            self._conn_gen += 1

    async def _call_once(self, opcode: int, body: bytes) -> P.Response:
        attempts = 0
        while True:
            if self._closed:
                raise ClientError("client is closed")
            self._next_id += 1
            request_id = self._next_id
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._pending.append((request_id, future))
            self._writer.write(P.encode_request(opcode, request_id, body))
            await self._writer.drain()
            response = await future
            if response.status != P.ST_STALLED:
                return response
            attempts += 1
            self.stall_retries += 1
            if attempts > self.max_retries:
                raise ServerBusyError(
                    f"write refused {attempts} times (compaction stall)"
                )
            await asyncio.sleep(_stall_delay_s(response.body))

    # ------------------------------------------------------------- ops
    async def ping(self, payload: bytes = b"") -> bytes:
        return _ResponseHandler.unwrap(await self._call(P.OP_PING, payload))

    async def get(self, key: bytes) -> Optional[bytes]:
        return _ResponseHandler.result(
            P.OP_GET, await self._call(P.OP_GET, P.encode_lp(key))
        )

    async def put(self, key: bytes, value: bytes) -> None:
        _ResponseHandler.unwrap(
            await self._call(P.OP_PUT, P.encode_lp(key) + P.encode_lp(value))
        )

    async def delete(self, key: bytes) -> None:
        _ResponseHandler.unwrap(
            await self._call(P.OP_DELETE, P.encode_lp(key))
        )

    async def batch(self, ops) -> int:
        from ..codec.varint import decode_varint64

        result = _ResponseHandler.unwrap(
            await self._call(P.OP_BATCH, P.encode_batch_body(ops))
        )
        return decode_varint64(result, 0)[0]

    async def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        limit: int = 0,
        reverse: bool = False,
    ) -> tuple[list[tuple[bytes, bytes]], bool]:
        result = _ResponseHandler.unwrap(
            await self._call(P.OP_SCAN, P.encode_scan_body(start, end, limit, reverse))
        )
        return P.decode_scan_result(result)

    async def stats(self) -> dict:
        import json

        result = _ResponseHandler.unwrap(await self._call(P.OP_STATS))
        blob, _ = P.decode_lp(result)
        return json.loads(blob)

    async def compact(self) -> int:
        from ..codec.varint import decode_varint64

        result = _ResponseHandler.unwrap(await self._call(P.OP_COMPACT))
        return decode_varint64(result, 0)[0]

    async def flush(self) -> None:
        _ResponseHandler.unwrap(await self._call(P.OP_FLUSH))

    async def promote(self, min_epoch: int = 0) -> int:
        """Async counterpart of :meth:`SyncClient.promote`."""
        result = _ResponseHandler.unwrap(
            await self._call(P.OP_PROMOTE, P.encode_promote_body(min_epoch))
        )
        return P.decode_promote_ack(result)

    async def metrics(self, fmt: str = "json"):
        """Async counterpart of :meth:`SyncClient.metrics`."""
        wire = (
            P.METRICS_FMT_PROMETHEUS if fmt == "prom" else P.METRICS_FMT_JSON
        )
        result = _ResponseHandler.unwrap(
            await self._call(P.OP_METRICS, P.encode_metrics_body(wire))
        )
        blob, _ = P.decode_lp(result)
        if fmt == "prom":
            return blob.decode()
        payload = json.loads(blob)
        return payload.get("metrics", payload)

    async def trace_dump(self) -> dict:
        """Async counterpart of :meth:`SyncClient.trace_dump`."""
        result = _ResponseHandler.unwrap(await self._call(P.OP_TRACE))
        blob, _ = P.decode_lp(result)
        return json.loads(blob)

    async def hello(self, ack_level: Optional[int] = None) -> tuple[int, int]:
        """Async counterpart of :meth:`SyncClient.hello`."""
        body = _ResponseHandler.unwrap(
            await self._call(P.OP_PING, P.encode_hello_body(ack_level=ack_level))
        )
        negotiated = P.decode_hello_ack(body)
        return negotiated if negotiated is not None else (1, 0)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._fail_pending(ClientError("client closed"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:  # pragma: no cover - covers ConnectionError
            pass

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
