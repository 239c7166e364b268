"""Follower side of log shipping: subscribe, apply, ack.

A :class:`Follower` owns a background thread with one long-lived
socket to the primary.  After the version hello and a
``REPL_SUBSCRIBE``, the connection inverts: the primary pushes
``REPL_SHIP`` frames, the follower applies them and pushes
``REPL_ACK`` frames back.  Every ack is preceded by a WAL sync, so an
acked sequence is durable on the follower — that is the invariant the
zero-acked-write-loss guarantee rests on.

When the primary answers the subscribe with snapshot mode, the
follower receives the primary's SSTables wholesale, rebuilds its
manifest, and reopens its DB (``db_factory``), then continues with WAL
records from the snapshot's sequence.  A ``SHIP_GOODBYE`` (primary
shutting down cleanly) parks the follower in a quiet retry loop
instead of logging connection errors.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from typing import Callable, Optional

from ..analysis.locksan import make_lock
from ..db.manifest import ManifestWriter, VersionEdit, set_current
from ..lsm.version import FileMetaData
from ..server import protocol as P
from .errors import ReplicationError

__all__ = ["Follower"]

logger = logging.getLogger("repro.replication")

#: Socket receive timeout; bounds how fast stop() is noticed.
_RECV_TIMEOUT_S = 0.5

#: Overall deadline for the hello/subscribe exchanges: a black-holed
#: primary (socket open, no bytes) must not park the follower in the
#: handshake forever.
_HANDSHAKE_DEADLINE_S = 10.0


class _PrimaryGoodbye(Exception):
    """The primary announced a clean shutdown (not an error)."""


class _Resubscribe(Exception):
    """Stream state forces a fresh subscribe (e.g. sequence gap)."""


class Follower:
    """Tails a primary and replays its WAL into a local DB."""

    def __init__(
        self,
        db,
        storage,
        db_factory: Callable[[], object],
        primary_host: str,
        primary_port: int,
        follower_id: str,
        on_db_swap: Optional[Callable[[object], None]] = None,
        retry_interval_s: float = 0.5,
        max_silence_s: float = 5.0,
    ) -> None:
        """``storage`` is the *raw* storage behind ``db`` — snapshot
        install wipes and repopulates it, then calls ``db_factory()``
        to reopen; ``on_db_swap(new_db)`` lets an embedding server
        switch its serving handle.  ``max_silence_s`` is the partition
        detector: the primary heartbeats an idle stream, so a connection
        silent that long is declared dead and re-dialled instead of
        blocking forever."""
        self.db = db
        self._storage = storage
        self._db_factory = db_factory
        self._host = primary_host
        self._port = primary_port
        self.follower_id = follower_id
        self._on_db_swap = on_db_swap
        self._retry_s = retry_interval_s
        self.max_silence_s = max_silence_s
        self._frames: Optional[P.FrameReader] = None  # per connection
        self.heartbeats = 0
        #: Primary's last sequence as of the latest heartbeat.
        self.primary_seq: Optional[int] = None
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = make_lock("repl.follower")
        # Observable state for repl-status / stats.
        self.connected = False
        self.mode: Optional[str] = None
        self.last_error: Optional[str] = None
        self.goodbyes = 0
        # After a clean GOODBYE the primary is *expected* to be down;
        # demote reconnect noise until a connect succeeds again.
        self._saw_goodbye = False

    # ---------------------------------------------------------- control
    def start(self) -> "Follower":
        self._thread = threading.Thread(
            target=self._run, name=f"repl-follower-{self.follower_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        with self._lock:
            self._close_socket()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def bind_db_swap(self, fn: Callable[[object], None]) -> None:
        """Late-bind the DB-swap callback (an embedding server's
        ``swap_db``) when the server is built after the follower."""
        self._on_db_swap = fn

    def repoint(self, host: str, port: int) -> None:
        """Re-parent onto a different primary (post-failover).

        Swaps the target and drops the live connection; the run loop
        re-dials the new primary with the normal subscribe flow, so
        catch-up (WAL tail or snapshot) needs no special casing.
        """
        # Logging hint only, owned by the run loop — kept outside the
        # lock to match its other (unlocked) writers.
        self._saw_goodbye = False
        with self._lock:
            self._host = host
            self._port = port
            self._close_socket()

    def _close_socket(self) -> None:
        """Close the live connection (lock held).  Shutting it down first
        wakes a run loop blocked reading it at once; a bare close would
        leave it waiting out its receive timeout, and ``stop()`` (which
        a promotion runs inside its request) with it."""
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # never connected, or already shut down
                pass
            try:
                self._sock.close()
            except OSError:
                pass

    def status(self) -> dict:
        return {
            "role": "follower",
            "primary": f"{self._host}:{self._port}",
            "follower_id": self.follower_id,
            "connected": self.connected,
            "mode": self.mode,
            "applied_seq": self.db.last_sequence,
            "epoch": self.db.repl_epoch,
            "goodbyes": self.goodbyes,
            "heartbeats": self.heartbeats,
            "primary_seq": self.primary_seq,
            "last_error": self.last_error,
        }

    # ------------------------------------------------------------- loop
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._connect_and_stream()
            except _PrimaryGoodbye as exc:
                # Clean shutdown on the other side: no error noise,
                # quiet periodic reconnect attempts.
                self.goodbyes += 1
                self._saw_goodbye = True
                self.db.obs.metrics.counter("repl.goodbyes_received").inc()
                logger.info(
                    "primary said goodbye (%s); will retry quietly", exc
                )
            except _Resubscribe as exc:
                logger.info("resubscribing to primary: %s", exc)
                events = self.db.obs.events
                if events.enabled:
                    events.emit(
                        "follower.resubscribe",
                        follower=self.follower_id,
                        reason=str(exc),
                    )
                continue
            except (OSError, ConnectionError, P.ProtocolError) as exc:
                if self._stop.is_set():
                    break
                self.last_error = str(exc)
                log = logger.debug if self._saw_goodbye else logger.warning
                log(
                    "lost primary %s:%s (%s); retrying",
                    self._host, self._port, exc,
                )
            except ReplicationError as exc:
                self.last_error = str(exc)
                logger.error("replication halted: %s", exc)
                return
            finally:
                self.connected = False
            self._stop.wait(self._retry_s)

    # -------------------------------------------------------- transport
    def _read(self, sock: socket.socket, within_s: float) -> bytes:
        """The next frame's payload; a primary silent for ``within_s``
        is declared dead (a closed socket raises sooner)."""
        return self._frames.read_frame(sock, time.monotonic() + within_s)

    def _next_ship(self, sock: socket.socket) -> tuple:
        """The next pushed REPL_SHIP body, decoded.  An idle primary
        heartbeats, so silence past ``max_silence_s`` is a partition."""
        request = P.decode_request(self._read(sock, self.max_silence_s))
        if request.opcode != P.OP_REPL_SHIP:
            raise P.ProtocolError(
                f"expected REPL_SHIP, got {request.opcode_name}"
            )
        return P.decode_ship_body(request.body)

    # --------------------------------------------------------- protocol
    def _connect_and_stream(self) -> None:
        sock = socket.create_connection((self._host, self._port), timeout=5.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_RECV_TIMEOUT_S)
        self._frames = P.FrameReader()
        with self._lock:
            self._sock = sock
        try:
            if self._stop.is_set():  # stop() could not close this one
                return
            self._handshake(sock)
            self._subscribe_and_apply(sock)
        finally:
            with self._lock:
                self._close_socket()
                self._sock = None

    def _handshake(self, sock: socket.socket) -> None:
        sock.sendall(P.encode_request(P.OP_PING, 1, P.encode_hello_body()))
        response = P.decode_response(self._read(sock, _HANDSHAKE_DEADLINE_S))
        if not response.ok:
            raise ConnectionError(
                f"hello rejected: {response.status_name}"
            )

    def _subscribe_and_apply(self, sock: socket.socket) -> None:
        start_seq = self.db.last_sequence + 1
        body = P.encode_body(
            P.SUBSCRIBE, start_seq, self.db.repl_epoch, self.follower_id.encode()
        )
        sock.sendall(P.encode_request(P.OP_REPL_SUBSCRIBE, 2, body))
        response = P.decode_response(self._read(sock, _HANDSHAKE_DEADLINE_S))
        if response.status == P.ST_FENCED:
            raise ReplicationError(
                "primary refused subscription: our epoch is newer "
                "(this node was promoted; stop following)"
            )
        if not response.ok:
            raise ConnectionError(
                f"subscribe rejected: {response.status_name}"
            )
        mode, primary_epoch, _primary_seq = P.decode_body(P.SUBSCRIBE_ACK, response.body)
        if mode not in (P.SUB_MODE_WAL, P.SUB_MODE_SNAPSHOT):
            raise P.ProtocolError(f"unknown subscribe mode {mode}")
        self.mode = "snapshot" if mode == P.SUB_MODE_SNAPSHOT else "wal"
        self._primary_epoch = primary_epoch
        if primary_epoch > self.db.repl_epoch:
            # Adopt the primary's fencing epoch so a later promotion
            # of *this* node outranks it.
            self.db.set_repl_epoch(primary_epoch)
        self.connected = True
        self.last_error = None
        self._saw_goodbye = False
        self._ship_loop(sock)

    def _ship_loop(self, sock: socket.socket) -> None:
        metrics = self.db.obs.metrics
        while not self._stop.is_set():
            decoded = self._next_ship(sock)
            kind = decoded[0]
            if kind == P.SHIP_RECORDS:
                self._apply_records(sock, decoded[1], metrics)
            elif kind == P.SHIP_HEARTBEAT:
                self.heartbeats += 1
                self.primary_seq = decoded[1]
                metrics.counter("repl.heartbeats").inc()
            elif kind == P.SHIP_SNAP_BEGIN:
                self._receive_snapshot(sock, decoded[1], decoded[2])
                self.mode = "wal"  # tail resumes after install
            elif kind == P.SHIP_GOODBYE:
                raise _PrimaryGoodbye(decoded[1])
            else:
                raise P.ProtocolError(
                    f"unexpected ship kind {kind} outside a snapshot"
                )

    @staticmethod
    def _ack(sock: socket.socket, seq: int) -> None:
        sock.sendall(
            P.encode_request(P.OP_REPL_ACK, 3, P.encode_body(P.REPL_ACK, seq))
        )

    def _apply_records(self, sock, records, metrics) -> None:
        with self.db.obs.tracer.span("repl-apply", cat="repl"):
            applied = 0
            for record in records:
                try:
                    if self.db.apply_replicated(record):
                        applied += 1
                except ValueError as exc:
                    raise _Resubscribe(str(exc)) from None
            metrics.counter("repl.apply_records").inc(applied)
            metrics.counter("repl.apply_bytes").inc(
                sum(len(r) for r in records)
            )
            # Durable-before-ack: the primary may count this sequence
            # toward a client's ack level, so it must survive a
            # follower crash from here on.
            self.db.sync_wal()
        self._ack(sock, self.db.last_sequence)

    # --------------------------------------------------------- snapshot
    def _next_snap(self, sock, kind: int, name: str) -> tuple:
        decoded = self._next_ship(sock)
        if decoded[0] != kind:
            raise P.ProtocolError(f"expected {name}")
        return decoded

    def _receive_snapshot(self, sock, last_seq: int, n_files: int) -> None:
        """Receive a full SST snapshot and rebuild the local DB."""
        logger.info(
            "receiving snapshot: %d files up to seq %d", n_files, last_seq
        )
        with self.db.obs.tracer.span("repl-snapshot", cat="repl"):
            files: list[tuple[int, FileMetaData]] = []
            self.db.close()
            for name in self._storage.list():
                try:
                    self._storage.delete(name)
                except OSError:
                    pass
            for _ in range(n_files):
                _, level, name, size, smallest, largest = self._next_snap(
                    sock, P.SHIP_SNAP_FILE, "SHIP_SNAP_FILE"
                )
                received = 0
                with self._storage.create(name) as out:
                    while received < size:
                        _, chunk = self._next_snap(
                            sock, P.SHIP_SNAP_CHUNK, "SHIP_SNAP_CHUNK"
                        )
                        out.append(chunk)
                        received += len(chunk)
                    out.sync()
                number = int(name.split(".")[0])
                files.append(
                    (level, FileMetaData(number, size, smallest, largest))
                )
            _, install_seq = self._next_snap(
                sock, P.SHIP_SNAP_END, "SHIP_SNAP_END"
            )
            self._install_manifest(files, install_seq)
            self.db = self._db_factory()
            if self._on_db_swap is not None:
                self._on_db_swap(self.db)
        self.db.obs.metrics.counter("repl.snapshots_installed").inc()
        events = self.db.obs.events
        if events.enabled:
            events.emit(
                "follower.snapshot",
                follower=self.follower_id,
                seq=install_seq,
                files=n_files,
            )
        logger.info("snapshot installed at seq %d", install_seq)
        self._ack(sock, install_seq)

    def _install_manifest(
        self, files: list[tuple[int, FileMetaData]], last_seq: int
    ) -> None:
        """Write a manifest + CURRENT describing the shipped tree."""
        numbers = [meta.number for _lv, meta in files]
        manifest_number = max(numbers, default=0) + 1
        manifest_name = f"MANIFEST-{manifest_number:06d}"
        writer = ManifestWriter(self._storage, manifest_name)
        edit = VersionEdit(
            next_file_number=manifest_number + 1,
            last_sequence=last_seq,
            repl_epoch=getattr(self, "_primary_epoch", 0),
        )
        for level, meta in files:
            edit.add_file(level, meta)
        writer.append(edit, sync=True)
        writer.close()
        set_current(self._storage, manifest_name)
