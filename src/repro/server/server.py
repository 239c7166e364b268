"""Asyncio TCP server exposing a :class:`repro.db.DB` over the wire.

Architecture
============

One asyncio event loop owns all sockets; the blocking engine calls
(``DB.put`` … ``DB.compact_range``) are dispatched to a small thread
pool via ``run_in_executor`` (the DB serialises internally with its
own lock, so pool width bounds *queueing*, not data races).  Per
connection, a reader coroutine decodes frames into a bounded queue, and
one lane coroutine runs them one at a time and writes each reply before
it starts the next, so responses go out **in request order**
(Redis-style pipelining).

What cannot wait skips the pool.  When a connection has nothing in
flight, its reader first runs the request in non-waiting mode on the
loop thread itself — ``PING`` touches no engine state, and ``GET`` goes
through ``DB.get(wait=False)``, which never waits for the DB mutex,
opens a table or waits for the device (a block the kernel already
holds is read) — and writes the reply directly: no task, no queue, no
executor round trip; ``server.inline`` counts these.  Anything that
would wait raises :class:`repro.db.WouldBlock` (a held mutex, an
unopened table, a block the device must read, every other opcode) and
takes the pool path above.  Both entries are one function,
:meth:`KVServer._handle_request`.

Backpressure, two layers
========================

* **Per-connection**: the response queue is bounded
  (``max_inflight_per_conn``); when a client pipelines more requests
  than that, the reader coroutine stops consuming its socket and TCP
  flow control pushes back to the sender.
* **Engine stalls**: the paper's write pause (§I) — L0 backed up,
  ``DB._maybe_stall`` would block the writer — is surfaced as an
  explicit ``STALLED`` response carrying a suggested retry delay,
  instead of silently parking a worker thread inside the engine.
  Clients back off and retry (:mod:`repro.server.client` does this
  automatically), which makes compaction pauses *observable* at the
  network edge — exactly what the paper's pipelined compaction is
  meant to shorten.  In cluster mode (serving a
  :class:`repro.cluster.ShardedDB`) the rejection is routed: only
  writes whose keys land on a stalled shard see ``STALLED``; traffic
  to healthy shards flows on.

Graceful shutdown drains in-flight requests, flushes the memtable,
runs compactions to quiescence, and closes the DB, so the directory
passes ``repro.db.verify.verify_db`` afterwards.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from ..analysis.locksan import make_lock
from ..db.db import DB, WouldBlock, db_counts
from ..devices.faults import TransientIOError
from ..lsm.wal import WriteBatch
from ..obs import NULL_EVENTS, NULL_TRACER, MetricsRegistry, trace_context
from ..obs.export import render_json, render_prometheus
from . import protocol as P

__all__ = [
    "ServerConfig",
    "KVServer",
    "ServerThread",
    "serve_forever",
    "server_section",
]

_log = logging.getLogger("repro.server")

#: Snapshot streaming chunk size (well under MAX_FRAME_BYTES).
_SNAP_CHUNK_BYTES = 1 * 1024 * 1024

#: Per-connection receive buffer; a longer frame takes several reads.
_RECV_BYTES = 64 * 1024


class _RecvIntoProtocol(asyncio.StreamReaderProtocol, asyncio.BufferedProtocol):
    """``StreamReaderProtocol`` that receives into one buffer per connection.

    Under a plain ``Protocol`` the selector transport calls
    ``sock.recv(256 KB)`` for every read: a 256 KB ``malloc``, shrunk to
    the few bytes of a request and freed.  Whether that block sits at
    the top of the heap depends on everything allocated before it; when
    it does, glibc trims the heap after each request and grows it again
    for the next — two page faults per GET, 15–25 % of ``read-cached``'s
    throughput, switched on or off by the size of unrelated code.  A
    ``BufferedProtocol`` makes the transport ``recv_into`` this buffer
    instead, and ``StreamReader.feed_data`` copies out of it.
    """

    def __init__(self, on_connection) -> None:
        self._reader = asyncio.StreamReader()
        super().__init__(self._reader, on_connection)
        self._recv_view = memoryview(bytearray(_RECV_BYTES))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._recv_view

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._recv_view[:nbytes])

    def end_stream(self, transport: asyncio.Transport) -> None:
        """End the stream at the bytes received so far: the reader reads
        out the frames already buffered, then sees EOF."""
        # Bytes fed after EOF trip an assert in ``feed_data``: stop
        # reading, and drop what a flow-control resume still receives.
        transport.pause_reading()
        self.buffer_updated = lambda nbytes: None
        self._reader.feed_eof()


async def _send(writer: asyncio.StreamWriter, frame: bytes) -> None:
    """Write one frame and wait until the socket takes it."""
    writer.write(frame)
    await writer.drain()


def _ship(kind: int, *fields) -> bytes:
    """A REPL_SHIP frame; the primary's pushes all carry request id 0."""
    return P.encode_request(P.OP_REPL_SHIP, 0, P.encode_ship(kind, *fields))


@dataclass
class ServerConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port from KVServer.port
    worker_threads: int = 4
    #: Pipelined requests admitted per connection before the server
    #: stops reading that socket (TCP backpressure).
    max_inflight_per_conn: int = 32
    max_frame_bytes: int = P.MAX_FRAME_BYTES
    #: Hard cap on entries returned by one SCAN (result is flagged
    #: truncated when it hits).
    scan_limit_max: int = 65536
    #: Suggested client back-off carried in STALLED responses.
    stall_retry_ms: int = 25
    #: Grace period for live connections to finish during stop().
    drain_timeout_s: float = 10.0
    #: Refuse write opcodes (follower replicas serve reads only).
    read_only: bool = False
    #: Default follower acks a write must collect before OK
    #: (0 = primary durability only, -1 = cluster majority); a client
    #: hello can override per connection.
    repl_acks: int = 0
    #: How long a write waits for follower acks before STALLED.
    repl_ack_timeout_s: float = 5.0

    def validate(self) -> None:
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be >= 1")
        if self.max_inflight_per_conn < 1:
            raise ValueError("max_inflight_per_conn must be >= 1")
        if self.scan_limit_max < 1:
            raise ValueError("scan_limit_max must be >= 1")
        if self.repl_acks < -1:
            raise ValueError("repl_acks must be >= -1 (-1 = majority)")
        if self.repl_ack_timeout_s <= 0:
            raise ValueError("repl_ack_timeout_s must be > 0")


def server_section(snapshot: dict) -> dict:
    """STATS' ``server`` section, read from a server registry's snapshot.

    Opcodes that served no request are left out.
    """
    counters, histograms = snapshot["counters"], snapshot["histograms"]
    ops = {}
    for name in P.OPCODE_NAMES.values():
        prefix = f"server.op.{name}."
        if counters.get(prefix + "requests"):
            ops[name] = {
                field: counters[prefix + field]
                for field in ("requests", "errors", "bytes_in", "bytes_out")
            }
            ops[name]["latency"] = histograms[prefix + "latency"]
    opened = counters["server.connections_opened"]
    closed = counters["server.connections_closed"]
    return {
        "ops": ops,
        "stall_rejections": counters["server.stall_rejections"],
        "protocol_errors": counters["server.protocol_errors"],
        "connections_opened": opened,
        "connections_closed": closed,
        "active_connections": opened - closed,
    }


class KVServer:
    """The networked KV service; one instance wraps one open engine.

    ``db`` is anything DB-shaped: a :class:`repro.db.DB` or a
    :class:`repro.cluster.ShardedDB` (cluster mode — same wire
    protocol, shard-aware stall routing, STATS grows a ``cluster``
    section with per-shard rollups).
    """

    def __init__(
        self,
        db: DB,
        config: Optional[ServerConfig] = None,
        own_db: bool = True,
        hub=None,
        follower=None,
    ) -> None:
        """``hub`` (a :class:`repro.replication.ReplicationHub`) makes
        this server a replication primary: it accepts REPL_SUBSCRIBE,
        streams WAL records/snapshots, and gates writes on follower
        acks.  ``follower`` (a :class:`repro.replication.Follower`)
        marks it a replica: its status is surfaced via STATS and it is
        stopped before the DB drains on shutdown."""
        self.db = db
        self.config = config or ServerConfig()
        self.config.validate()
        #: The server's own counts (``server.*``); the engine's stay in
        #: the DB's registry.  Recording metrics are fetched once here.
        self.metrics = MetricsRegistry()
        self._op_metrics = {
            opcode: (
                self.metrics.counter(f"server.op.{name}.requests"),
                self.metrics.counter(f"server.op.{name}.errors"),
                self.metrics.counter(f"server.op.{name}.bytes_in"),
                self.metrics.counter(f"server.op.{name}.bytes_out"),
                self.metrics.latency_histogram(f"server.op.{name}.latency"),
            )
            for opcode, name in P.OPCODE_NAMES.items()
        }
        self._stall_rejections = self.metrics.counter("server.stall_rejections")
        self._protocol_errors = self.metrics.counter("server.protocol_errors")
        self._conns_opened = self.metrics.counter("server.connections_opened")
        self._conns_closed = self.metrics.counter("server.connections_closed")
        self._inline = self.metrics.counter("server.inline")
        self.own_db = own_db
        self.hub = hub
        self.follower = follower
        obs = getattr(db, "obs", None)
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        self._events = getattr(obs, "events", None) or NULL_EVENTS
        self._server: Optional[asyncio.base_events.Server] = None
        #: Each live connection's task and transport.
        self._conns: dict[asyncio.Task, asyncio.Transport] = {}
        self._closing = False
        self._pool: Optional[ThreadPoolExecutor] = None
        self._promote_lock = make_lock("server.promote")

    # ---------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.worker_threads, thread_name_prefix="kv-worker"
        )
        # asyncio.start_server, with the protocol swapped.
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _RecvIntoProtocol(self._on_connection),
            self.config.host,
            self.config.port,
        )

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ephemeral port 0)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def stop(self) -> None:
        """Graceful shutdown: drain, flush, compact, close the DB."""
        if self._server is None:
            return
        self._closing = True
        if self.hub is not None:
            # Wake every subscriber ship loop with a GOODBYE so
            # follower tails exit cleanly instead of seeing a reset.
            self.hub.shutdown("server shutting down")
        if self.follower is not None:
            # Stop tailing the primary before the local DB drains; use
            # the named worker pool, not the loop's anonymous default
            # executor, so the blocking stop is attributable in traces.
            await asyncio.get_running_loop().run_in_executor(
                self._pool, self.follower.stop
            )
        self._server.close()
        # An idle connection would wait for its next frame forever: end
        # every stream after the frames already received, so only
        # requests still running keep a connection open.
        for transport in self._conns.values():
            if not transport.is_closing():  # else its reader sees EOF
                transport.get_protocol().end_stream(transport)
        await self._server.wait_closed()
        if self._conns:
            done, pending = await asyncio.wait(
                self._conns, timeout=self.config.drain_timeout_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._pool, self._drain_db)
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def _drain_db(self) -> None:
        """Flush the memtable and run compactions to quiescence."""
        if getattr(self.db, "_closed", False):
            return
        self.db.flush()
        if self.db._background:
            self.db.wait_for_compactions()
        if self.own_db:
            self.db.close()

    def swap_db(self, new_db) -> None:
        """Switch the serving engine (follower snapshot install)."""
        self.db = new_db

    # ----------------------------------------------------------- failover
    def promote_to_primary(self, min_epoch: int = 0) -> int:
        """Promote this node to replication primary, online.

        The whole-node counterpart of ``dbtool promote`` (which needs
        the DB closed): stops the follower loop if one is running,
        bumps the replication epoch to ``max(current + 1, min_epoch)``,
        lifts read-only mode, and attaches a
        :class:`~repro.replication.ReplicationHub` so other replicas
        can re-parent here.  The epoch bump fences the old primary —
        its hub refuses subscriptions from higher-epoch followers, so
        acks dry up and ack-gated writes stall rather than split-brain.

        Idempotent under retries when ``min_epoch`` is given: a node
        already primary at or past it acks without bumping again.
        Returns the node's (possibly unchanged) replication epoch.
        """
        with self._promote_lock:
            already_primary = (
                self.follower is None and not self.config.read_only
            )
            if (
                already_primary
                and min_epoch
                and self.db.repl_epoch >= min_epoch
            ):
                return self.db.repl_epoch
            follower = self.follower
            if follower is not None:
                # Clear the attribute first so STATS flips to primary
                # and stop() is never re-entered by a racing promote.
                self.follower = None
                follower.stop()
            new_epoch = max(self.db.repl_epoch + 1, min_epoch)
            self.db.set_repl_epoch(new_epoch)
            self.config.read_only = False
            if self.hub is None:
                from ..replication.hub import ReplicationHub

                self.hub = ReplicationHub(self.db)
            obs = getattr(self.db, "obs", None)
            if obs is not None:
                obs.metrics.counter("failover.promoted").inc()
            if self._events.enabled:
                self._events.emit(
                    "failover.promoted",
                    epoch=new_epoch,
                    was_follower=follower is not None,
                )
            return new_epoch

    # -------------------------------------------------------- connections
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conns[task] = writer.transport
        self._conns_opened.inc()
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=self.config.max_inflight_per_conn
        )
        # Mutable per-connection state: the hello handshake stores the
        # connection's negotiated write ack level here; "inflight" is
        # the number of requests handed to the lane whose frames are
        # not on the socket yet.
        state: dict = {"inflight": 0}
        writer_task = asyncio.create_task(
            self._write_responses(queue, writer, state)
        )
        state["writer_task"] = writer_task
        try:
            await self._read_requests(reader, writer, queue, state)
        finally:
            try:
                await queue.put(None)
                await writer_task
            except asyncio.CancelledError:  # forced stop mid-drain
                writer_task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # covers ConnectionError
                pass
            self._conns_closed.inc()
            del self._conns[task]

    async def _read_requests(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue: asyncio.Queue,
        state: dict,
    ) -> None:
        inline_run = 0  # consecutive replies written without yielding
        while True:
            try:
                payload = await P.read_frame(reader, self.config.max_frame_bytes)
                request = P.decode_request(payload)
            except ConnectionError:
                return  # client went away
            except P.ProtocolError:
                # The stream is unframed garbage from here on: there is
                # no way to resynchronise, so drop the connection.
                self._protocol_errors.inc()
                return
            if request.opcode == P.OP_REPL_SUBSCRIBE:
                # The connection inverts into a push stream: flush the
                # pipelined responses, then this coroutine owns the
                # socket until the subscription ends.
                await queue.put(None)
                await state["writer_task"]
                await self._serve_subscription(reader, writer, request, state)
                return
            t0 = time.perf_counter()
            bytes_in = P.FRAME_OVERHEAD + len(payload)
            if not state["inflight"]:
                # Nothing ahead of this request on the connection, so a
                # reply written here is in request order.  Awaiting the
                # handler directly runs it on this thread, now.
                try:
                    frame = await self._handle_request(
                        request, bytes_in, state, t0, wait=False
                    )
                except WouldBlock:
                    pass
                else:
                    self._inline.inc()
                    try:
                        writer.write(frame)
                        await writer.drain()
                    except OSError:  # covers ConnectionError
                        return
                    inline_run += 1
                    if inline_run >= self.config.max_inflight_per_conn:
                        # A pipelining client keeps readexactly from
                        # ever suspending; let other connections in.
                        inline_run = 0
                        await asyncio.sleep(0)
                    continue
            inline_run = 0
            state["inflight"] += 1
            # Bounded queue: blocks when the pipeline is full, which
            # stops reading this socket until responses drain.
            await queue.put((request, bytes_in, t0))

    async def _write_responses(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter, state: dict
    ) -> None:
        """The connection's lane: run each queued request on the pool,
        then write its reply, before starting the next — so a GET
        pipelined behind a PUT sees it."""
        # Keeps consuming until the sentinel even after a send failure,
        # so the reader's queue.put never deadlocks on a dead peer.
        broken = False
        while True:
            item = await queue.get()
            if item is None:
                return
            request, bytes_in, t0 = item
            try:
                frame = await self._handle_request(
                    request, bytes_in, state, t0, wait=True
                )
                if not broken:
                    await _send(writer, frame)
            except OSError:  # covers ConnectionError
                broken = True
            except Exception:  # pragma: no cover - handler is total
                _log.exception("request failed outside the handler")
            finally:
                # Only now may the reader write a reply itself: this
                # frame is on the socket and nobody else is in drain().
                state["inflight"] -= 1

    # ----------------------------------------------------------- dispatch
    async def _handle_request(
        self,
        request: P.Request,
        bytes_in: int,
        state: dict,
        t0: float,
        wait: bool,
    ) -> bytes:
        """Execute one request; returns the encoded response frame.

        The one handler behind both entries.  ``wait=True`` runs the
        opcode on a pool thread; the connection's lane awaits it before
        the next request.  ``wait=False`` runs it right here on the loop
        thread in non-waiting mode and never suspends;
        when the opcode would have to wait, :class:`WouldBlock`
        propagates with nothing recorded and the caller comes back with
        ``wait=True``.  ``t0`` is when the request was decoded, so a
        request that came back is timed from its first attempt.
        """
        status = P.ST_SERVER_ERROR
        body = b""
        try:
            if self._closing:
                status, body = P.ST_SHUTTING_DOWN, P.encode_lp(
                    b"server shutting down"
                )
            elif not wait:
                # A write always raises here, and meets the stall check
                # below when it comes back.
                status, body = self._execute(request, state, False)
            elif self._stalled_for(request):
                # The engine would park this write until compaction
                # catches up; tell the client to back off instead.
                status, body = self._stalled()
            else:
                loop = asyncio.get_running_loop()
                status, body = await loop.run_in_executor(
                    self._pool, self._execute, request, state, True
                )
        except WouldBlock:
            raise
        except P.ProtocolError as exc:
            status, body = P.ST_BAD_REQUEST, P.encode_lp(str(exc).encode())
        except TransientIOError:
            # Retryable storage hiccup (the engine already exhausted
            # its own retries): tell the client to back off and retry
            # — same contract as a compaction stall, not a hard error.
            status, body = self._stalled()
        except Exception as exc:  # engine failure: report, keep serving
            status, body = P.ST_SERVER_ERROR, P.encode_lp(
                f"{type(exc).__name__}: {exc}".encode()
            )
        frame = P.encode_response(status, request.request_id, body)
        duration = time.perf_counter() - t0
        self.record(
            request.opcode,
            duration,
            bytes_in,
            len(frame),
            error=status
            in (P.ST_BAD_REQUEST, P.ST_SERVER_ERROR, P.ST_SHUTTING_DOWN),
        )
        if self._events.enabled:
            self._events.slow_op(
                request.opcode_name,
                duration,
                status=P.STATUS_NAMES.get(status, status),
                request_id=request.request_id,
            )
        return frame

    def _stalled_for(self, request: P.Request) -> bool:
        """Would this request hit a write stall right now?

        Against a sharded engine only the shard(s) the request's keys
        route to count — one backed-up shard must not reject writes
        bound for healthy shards — so the keys are peeked out of the
        request body and passed to ``write_stalled(keys=...)``.
        Undecodable bodies report no stall; ``_execute`` raises the
        proper BAD_REQUEST for them.
        """
        if request.opcode not in P.WRITE_OPCODES:
            return False
        if self.hub is not None and not self.hub.write_admissible():
            # Replication admission control: every follower lags too
            # far behind; refuse writes until the stream catches up.
            return True
        if getattr(self.db, "shard_for_key", None) is None:
            return self.db.write_stalled()
        try:
            keys = P.write_request_keys(request)
        except P.ProtocolError:
            return False
        return self.db.write_stalled(keys=keys)

    def _execute(
        self, request: P.Request, state: dict, wait: bool
    ) -> tuple[int, bytes]:
        """Run one opcode against the DB, on the calling thread.

        A request carrying trace context binds it to this thread —
        a pool worker, or the loop thread when ``wait`` is False — for
        the duration: the ``server:<OP>`` dispatch span and every engine
        span recorded underneath (``db:<OP>``, flush, write-stall,
        ``repl-ack-wait``) get stamped with the client's trace id and
        chain parent span ids (see :func:`repro.obs.trace_context`).
        Requests without context pay nothing.
        """
        if request.trace_id is None:
            return self._execute_op(request, state, wait)
        with trace_context(request.trace_id, request.span_id or 0):
            with self._tracer.span(
                f"server:{request.opcode_name}", cat="server"
            ):
                return self._execute_op(request, state, wait)

    def _execute_op(
        self, request: P.Request, state: dict, wait: bool
    ) -> tuple[int, bytes]:
        """``wait=False`` must return without waiting on anything — a
        lock, a file open, the device, a follower — or raise WouldBlock.
        It may read what the OS already holds (``DB.get(wait=False)``)."""
        op, body = request.opcode, request.body
        if op == P.OP_PING:
            hello = P.decode_hello_body(body)
            if hello is None:
                return P.ST_OK, body  # pre-versioning client: pure echo
            major, _, ack_level = hello
            if major > P.PROTOCOL_MAJOR:
                return P.ST_BAD_REQUEST, P.encode_lp(
                    f"unsupported protocol major {major} (this server "
                    f"speaks {P.PROTOCOL_MAJOR}.{P.PROTOCOL_MINOR})".encode()
                )
            # Only a peer that sent a hello gets SHIP_HEARTBEAT frames
            # on a replication stream.
            state["hello"] = True
            if ack_level is not None:
                state["ack_level"] = ack_level
            return P.ST_OK, P.HELLO_MAGIC + P.encode_body(
                P.HELLO_ACK, P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR, P.HELLO_ACK_MARKER
            )
        if op == P.OP_GET:
            key, _ = P.decode_lp(body)
            with self._tracer.span("db:GET", cat="db"):
                value = self.db.get(key, wait=wait)
            if value is None:
                return P.ST_NOT_FOUND, b""
            return P.ST_OK, P.encode_lp(value)
        if not wait:
            # Everything below syncs a file, walks the tree, holds the
            # DB mutex across I/O or waits for followers.
            raise WouldBlock("only PING and GET can answer without waiting")
        if op == P.OP_PROMOTE:
            # Deliberately allowed on a read-only replica: promotion is
            # how a follower *stops* being read-only (failover).
            (min_epoch,) = P.decode_body(P.PROMOTE, body) if body else (0,)
            new_epoch = self.promote_to_primary(min_epoch)
            return P.ST_OK, P.encode_body(P.PROMOTE_ACK, new_epoch)
        if self.config.read_only and op in P.WRITE_OPCODES:
            return P.ST_BAD_REQUEST, P.encode_lp(
                b"read-only replica: send writes to the primary"
            )
        if op in (P.OP_REPL_SHIP, P.OP_REPL_ACK):
            raise P.ProtocolError(
                "replication stream opcode outside a REPL_SUBSCRIBE stream"
            )
        if op == P.OP_PUT:
            key, pos = P.decode_lp(body)
            value, _ = P.decode_lp(body, pos)
            with self._tracer.span("db:PUT", cat="db"):
                self.db.put(key, value)
            return self._write_done(state, b"")
        if op == P.OP_DELETE:
            key, _ = P.decode_lp(body)
            with self._tracer.span("db:DELETE", cat="db"):
                self.db.delete(key)
            return self._write_done(state, b"")
        if op == P.OP_BATCH:
            batch = WriteBatch()
            ops = P.decode_batch_body(body)
            for entry in ops:
                if entry[0] == "put":
                    batch.put(entry[1], entry[2])
                else:
                    batch.delete(entry[1])
            with self._tracer.span("db:BATCH", cat="db", n=len(ops)):
                self.db.write(batch)
            return self._write_done(state, P.encode_varint64(len(ops)))
        if op == P.OP_FLUSH:
            self.db.flush()
            return P.ST_OK, b""
        if op == P.OP_SCAN:
            start, end, limit, reverse = P.decode_scan_body(body)
            cap = self.config.scan_limit_max
            effective = min(limit, cap) if limit else cap
            scan = (
                self.db.scan_reverse(start, end)
                if reverse
                else self.db.scan(start, end)
            )
            pairs = []
            truncated = False
            for pair in scan:
                if len(pairs) >= effective:
                    # Only the server cap counts as truncation; a
                    # client-requested limit is just satisfied.
                    truncated = not limit or effective < limit
                    break
                pairs.append(pair)
            return P.ST_OK, P.encode_scan_result(pairs, truncated)
        if op == P.OP_STATS:
            return P.ST_OK, P.encode_lp(
                json.dumps(self._stats_dict(), sort_keys=True).encode()
            )
        if op == P.OP_METRICS:
            (fmt,) = P.decode_body(P.METRICS, body) if body else (P.METRICS_FMT_JSON,)
            if fmt not in (P.METRICS_FMT_JSON, P.METRICS_FMT_PROMETHEUS):
                raise P.ProtocolError(f"unknown metrics format {fmt}")
            return P.ST_OK, P.encode_lp(self.exposition(fmt))
        if op == P.OP_TRACE:
            trace = json.dumps(
                self._tracer.chrome_trace(), separators=(",", ":")
            )
            return P.ST_OK, P.encode_lp(trace.encode())
        if op == P.OP_COMPACT:
            n = self.db.compact_range()
            return P.ST_OK, P.encode_varint64(n)
        raise P.ProtocolError(f"unhandled opcode 0x{op:02x}")

    def _write_done(self, state: dict, ok_body: bytes) -> tuple[int, bytes]:
        """Gate a locally-applied write on the connection's ack level.

        The write already hit this node's WAL; when the required
        follower acks do not arrive in time the client sees STALLED and
        retries — the retry re-applies an identical overwrite, so the
        at-least-once semantics are safe by idempotence.
        """
        if self.hub is None:
            return P.ST_OK, ok_body
        level = state.get("ack_level")
        if level is None:
            level = self.config.repl_acks
        need = self.hub.resolve_need(level)
        if need <= 0:
            return P.ST_OK, ok_body
        with self._tracer.span("repl-ack-wait", cat="repl", need=need):
            acked = self.hub.wait_for_acks(
                self.db.last_sequence, need, self.config.repl_ack_timeout_s
            )
        if acked:
            return P.ST_OK, ok_body
        return self._stalled()

    def _stalled(self) -> tuple[int, bytes]:
        """Refuse with STALLED and the back-off a client should take."""
        self._stall_rejections.inc()
        return P.ST_STALLED, P.encode_varint64(self.config.stall_retry_ms)

    def record(
        self,
        opcode: int,
        seconds: float,
        bytes_in: int,
        bytes_out: int,
        error: bool = False,
    ) -> None:
        """Count one answered request: the one place requests are counted."""
        requests, errors, n_in, n_out, latency = self._op_metrics[opcode]
        requests.inc()
        n_in.inc(bytes_in)
        n_out.inc(bytes_out)
        latency.record(seconds)
        if error:
            errors.inc()

    def _stats_dict(self) -> dict:
        engine = self.db.metrics_snapshot()
        out = {
            "server": server_section(self.metrics.snapshot()),
            "db": {
                **db_counts(engine),
                "l0_files": self.db.num_files(0),
                "total_bytes": self.db.total_bytes(),
                "write_stalled_now": self.db.write_stalled(),
                "compaction_policy": (
                    self.db.policy.spec()
                    if getattr(self.db, "policy", None) is not None
                    else None
                ),
            },
            "engine": engine,
        }
        if getattr(self.db, "shard_stats", None) is not None:
            out["cluster"] = {
                "n_shards": self.db.n_shards,
                "stalled_shards": self.db.stalled_shards(),
                "shards": self.db.shard_stats(),
            }
        if self.hub is not None:
            out["repl"] = {
                "role": "primary",
                "epoch": self.db.repl_epoch,
                "last_sequence": self.db.last_sequence,
                "ack_level_default": self.config.repl_acks,
                "followers": self.hub.followers_status(),
            }
        elif self.follower is not None:
            out["repl"] = self.follower.status()
        return out

    # -------------------------------------------------------- exposition
    def telemetry_snapshot(self) -> dict:
        """One merged metrics snapshot: engine + server + replication.

        The engine side is the DB registry (shard-dimensioned with
        rollups when serving a :class:`~repro.cluster.ShardedDB`); the
        server's own registry (``server.op.*``, connection counters)
        merges on top.  Replication health gauges are refreshed first
        so a scrape always sees current lag/ring occupancy, not values
        from the last write.
        """
        if self.hub is not None:
            self.hub.refresh_gauges()
        snap = self.db.metrics_snapshot()
        merged = {
            kind: dict(snap.get(kind, {}))
            for kind in ("counters", "gauges", "histograms")
        }
        for kind, values in self.metrics.snapshot().items():
            merged.setdefault(kind, {}).update(values)
        return merged

    def exposition(self, fmt: int = P.METRICS_FMT_JSON) -> bytes:
        """The METRICS opcode payload: the live exposition document."""
        snapshot = self.telemetry_snapshot()
        if fmt == P.METRICS_FMT_PROMETHEUS:
            return render_prometheus(snapshot).encode()
        return render_json(snapshot).encode()

    # ------------------------------------------------------- replication
    async def _serve_subscription(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: P.Request,
        state: dict,
    ) -> None:
        """Own the connection as a push stream after REPL_SUBSCRIBE.

        The server pushes ``REPL_SHIP`` request frames; the follower
        pushes ``REPL_ACK`` request frames back.  Neither direction
        carries responses from here on.  Peers that sent a hello receive
        ``SHIP_HEARTBEAT`` frames whenever the WAL is idle, so a quiet
        stream stays distinguishable from a black-holed one.
        """
        from ..replication.errors import FencedError

        async def refuse(status: int, message: str) -> None:
            await _send(writer, P.encode_response(
                status, request.request_id, P.encode_lp(message.encode())
            ))

        if self.hub is None:
            await refuse(
                P.ST_BAD_REQUEST, "this server is not a replication primary"
            )
            return
        try:
            start_seq, epoch, follower_id = P.decode_body(
                P.SUBSCRIBE, request.body
            )
        except P.ProtocolError as exc:
            await refuse(P.ST_BAD_REQUEST, str(exc))
            return
        try:
            mode, sub = self.hub.subscribe(
                follower_id.decode("utf-8", "replace"), start_seq, epoch
            )
        except FencedError as exc:
            await refuse(P.ST_FENCED, str(exc))
            return
        mode_code = (
            P.SUB_MODE_SNAPSHOT if mode == "snapshot" else P.SUB_MODE_WAL
        )
        loop = asyncio.get_running_loop()
        # Dedicated single thread: hub.pull parks on a condition
        # variable, and parking it in the shared pool would starve
        # request workers of one thread per follower.  Named per
        # follower so traces and thread dumps attribute ship work to
        # the subscriber it serves (RA104 covers bare Threads, not
        # executor factories — name them anyway).
        ship_pool = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix=(
                f"repl-ship-{follower_id.decode('utf-8', 'replace')}"
            ),
        )
        ack_task = asyncio.create_task(self._read_acks(reader, sub))
        try:
            await _send(writer, P.encode_response(
                P.ST_OK,
                request.request_id,
                P.encode_body(
                    P.SUBSCRIBE_ACK, mode_code, self.db.repl_epoch, self.db.last_sequence
                ),
            ))
            if mode == "snapshot" and not await self._stream_snapshot(
                writer, sub
            ):
                return
            # hub.pull returns "idle" about every 0.5 s of WAL silence,
            # which sets the heartbeat cadence.
            heartbeats = "hello" in state
            while True:
                kind, payload = await loop.run_in_executor(
                    ship_pool, self.hub.pull, sub
                )
                if kind == "idle":
                    if heartbeats:
                        await _send(writer, _ship(
                            P.SHIP_HEARTBEAT, self.db.last_sequence
                        ))
                    continue
                if kind == "records":
                    await _send(writer, _ship(P.SHIP_RECORDS, payload))
                elif kind == "gap":
                    # The buffer was evicted out from under this
                    # follower: restart it from a full snapshot.
                    if not await self._stream_snapshot(writer, sub):
                        return
                else:  # goodbye
                    await _send(writer, _ship(P.SHIP_GOODBYE, str(payload)))
                    return
        except OSError:  # follower went away; reconnect catches up
            return
        finally:
            ack_task.cancel()
            try:
                await ack_task
            except asyncio.CancelledError:
                pass
            self.hub.unsubscribe(sub)
            ship_pool.shutdown(wait=False)

    async def _read_acks(self, reader: asyncio.StreamReader, sub) -> None:
        """Drain REPL_ACK frames pushed by the subscribed follower."""
        try:
            while True:
                payload = await P.read_frame(reader, self.config.max_frame_bytes)
                ack = P.decode_request(payload)
                if ack.opcode != P.OP_REPL_ACK:
                    return  # protocol violation: drop the stream
                self.hub.record_ack(sub, *P.decode_body(P.REPL_ACK, ack.body))
        except (ConnectionError, P.ProtocolError):
            return

    async def _stream_snapshot(self, writer, sub) -> bool:
        """Ship the full SST tree; False when the peer vanished."""
        loop = asyncio.get_running_loop()
        last_seq, files = await loop.run_in_executor(
            self._pool, self.db.checkpoint_files
        )
        try:
            writer.write(_ship(P.SHIP_SNAP_BEGIN, last_seq, len(files)))
            for level, meta, handle in files:
                writer.write(_ship(
                    P.SHIP_SNAP_FILE,
                    level, meta.name, meta.file_size, meta.smallest, meta.largest,
                ))
                offset = 0
                while offset < meta.file_size:
                    n = min(_SNAP_CHUNK_BYTES, meta.file_size - offset)
                    chunk = await loop.run_in_executor(
                        self._pool, handle.pread, offset, n
                    )
                    offset += n
                    await _send(writer, _ship(P.SHIP_SNAP_CHUNK, chunk))
            await _send(writer, _ship(P.SHIP_SNAP_END, last_seq))
        except OSError:
            return False
        finally:
            for _, _, handle in files:
                try:
                    handle.close()
                except OSError:
                    pass
        self.hub.reset_after_snapshot(sub, last_seq)
        return True


# ----------------------------------------------------------- embedding
class ServerThread:
    """Run a :class:`KVServer` on a private event loop in a thread.

    For sync callers — tests, the bench load generator, examples —
    that want a live server without owning an asyncio loop::

        handle = ServerThread(db).start()
        ... connect SyncClient(handle.host, handle.port) ...
        handle.stop()        # graceful: drains, flushes, closes the DB
    """

    def __init__(
        self,
        db: DB,
        config: Optional[ServerConfig] = None,
        own_db: bool = True,
        hub=None,
        follower=None,
    ) -> None:
        self.server = KVServer(
            db, config, own_db=own_db, hub=hub, follower=follower
        )
        self._thread = threading.Thread(
            target=self._run, name="kv-server", daemon=True
        )
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def metrics(self) -> MetricsRegistry:
        return self.server.metrics

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful stop; joins the server thread."""
        if self._loop is None or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_forever(
    db: DB,
    config: Optional[ServerConfig] = None,
    hub=None,
    follower=None,
) -> None:
    """Blocking entry point (``dbtool serve``): run until interrupted."""

    async def _main() -> None:
        import signal

        server = KVServer(db, config, hub=hub, follower=follower)
        if follower is not None:
            # Snapshot install replaces the follower's DB; the server
            # must serve the replacement.
            follower.bind_db_swap(server.swap_db)
        await server.start()
        print(f"serving on {server.host}:{server.port}", flush=True)
        stop_signal = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_signal.set)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass
        try:
            await stop_signal.wait()
        finally:
            print("shutting down: draining, flushing, compacting", flush=True)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        pass
