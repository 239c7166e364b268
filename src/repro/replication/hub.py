"""Primary-side log shipping: buffer, subscriber positions, acks.

The hub attaches to a :class:`repro.db.DB` through its WAL-listener
hook, so every durable write batch lands in an in-memory ring ordered
by sequence.  Subscribers (follower connections held by the server)
pull from the ring with natural backpressure — a slow follower blocks
its own connection's ship loop, never the writers.

Catch-up tiers for a subscriber that starts at sequence ``S``:

1. ``S`` within the live buffer → stream from memory.
2. ``S`` within the DB's retired-WAL retention and the retention
   bridges to the buffer floor → replay retained files, then memory.
3. otherwise → full snapshot (SST streaming), then memory.

Ack bookkeeping doubles as the write path's durability barrier:
``wait_for_acks`` parks a write until enough followers confirmed its
sequence, and ``write_admissible`` is the key-aware STALLED admission
control — a primary whose followers lag too far refuses new writes
instead of silently queueing them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional

from ..analysis.locksan import make_lock
from ..analysis.racesan import shared_state
from ..lsm.wal import batch_seq_bounds
from .errors import FencedError

__all__ = ["ReplicationHub", "Subscriber"]

#: Default cap on the in-memory record ring.
DEFAULT_BUFFER_BYTES = 4 * 1024 * 1024

#: Per-pull batching bounds (kept well under MAX_FRAME_BYTES).
MAX_PULL_RECORDS = 256
MAX_PULL_BYTES = 1 * 1024 * 1024


class Subscriber:
    """One follower's position in the stream (owned by the hub)."""

    __slots__ = (
        "follower_id", "next_seq", "acked_seq", "preload", "live",
        "acked_at",
    )

    def __init__(self, follower_id: str, next_seq: int) -> None:
        self.follower_id = follower_id
        self.next_seq = next_seq
        self.acked_seq = next_seq - 1
        #: records replayed from retained WAL files at subscribe time.
        self.preload: deque[bytes] = deque()
        self.live = True
        #: monotonic time of the last ack advance (health reporting).
        self.acked_at = time.monotonic()


class ReplicationHub:
    """Fan-out point between one primary DB and its followers."""

    def __init__(
        self,
        db,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        ack_timeout_s: float = 5.0,
        max_follower_lag: Optional[int] = None,
    ) -> None:
        """``max_follower_lag`` (records) turns on admission control:
        when every live follower lags the primary by more than this,
        writes are refused with STALLED until the followers catch up."""
        self._db = db
        self._metrics = db.obs.metrics
        self._events = db.obs.events
        self._cap = buffer_bytes
        self.ack_timeout_s = ack_timeout_s
        self.max_follower_lag = max_follower_lag
        self._lock = make_lock("repl.hub")
        self._cond = threading.Condition(self._lock)
        self._ring_state = shared_state("repl.hub.ring")
        # Ring of (base_seq, last_seq, record, append_time), oldest
        # first; append_time (monotonic) feeds the lag-seconds gauge.
        self._buffer: deque[tuple[int, int, bytes, float]] = deque()
        self._buffer_bytes = 0
        # Append time of the newest record evicted from the ring: a
        # follower whose position fell off the ring lags at least this
        # long.
        self._evicted_time: Optional[float] = None
        # Sequence the next buffered record must start at (buffer floor
        # when the ring is empty).
        self._next_seq = db.last_sequence + 1
        self._subscribers: list[Subscriber] = []
        self._shutdown_reason: Optional[str] = None
        self._ack_wait_hist = self._metrics.histogram("repl.ack_wait_seconds")
        self._metrics.gauge("repl.epoch").set(db.repl_epoch)
        db.add_wal_listener(self._on_record)

    # ------------------------------------------------------ ingestion
    def _on_record(self, base_seq: int, last_seq: int, record: bytes) -> None:
        # Called under the DB lock; keep it allocation-light.
        with self._cond:
            self._ring_state.write()
            self._buffer.append(
                (base_seq, last_seq, record, time.monotonic())
            )
            self._buffer_bytes += len(record)
            self._next_seq = last_seq + 1
            while self._buffer_bytes > self._cap and len(self._buffer) > 1:
                _, _, old, old_time = self._buffer.popleft()
                self._buffer_bytes -= len(old)
                self._evicted_time = old_time
            self._update_lag_gauge()
            self._cond.notify_all()

    def _buffer_floor(self) -> int:
        """Lowest sequence the in-memory ring can still serve."""
        return self._buffer[0][0] if self._buffer else self._next_seq

    # ---------------------------------------------------- subscription
    def subscribe(
        self, follower_id: str, start_seq: int, follower_epoch: int
    ) -> tuple[str, Subscriber]:
        """Register a follower wanting records from ``start_seq`` on.

        Returns ``("wal", sub)`` when the stream can replay from memory
        and/or retained WAL files, or ``("snapshot", sub)`` when the
        follower is too far behind and must receive a full SST snapshot
        first (the caller streams it, then calls
        :meth:`reset_after_snapshot`).  Raises :class:`FencedError`
        when the follower's epoch is newer than ours.
        """
        epoch = self._db.repl_epoch
        if follower_epoch > epoch:
            raise FencedError(
                f"follower epoch {follower_epoch} is newer than primary "
                f"epoch {epoch}: this node was superseded by a promotion"
            )
        sub = Subscriber(follower_id, start_seq)
        with self._cond:
            floor = self._buffer_floor()
            mode = "wal" if start_seq >= floor else "snapshot"
            if mode == "snapshot":
                retention = self._db.wal_retention
                if (
                    retention is not None
                    and retention.covers(start_seq)
                    and retention.ceiling_seq + 1 >= floor
                ):
                    try:
                        sub.preload.extend(
                            record
                            for base, count, record in retention.records_from(
                                start_seq
                            )
                            if base + count - 1 >= start_seq
                        )
                        mode = "wal"
                    except (OSError, ValueError):
                        # A retained file was pruned (or corrupted)
                        # under us: fall back to the snapshot path.
                        sub.preload.clear()
            # Drop a previous incarnation of the same follower id (a
            # reconnect after a kill) so ack counting never double
            # counts one node.
            for old in self._subscribers:
                if old.follower_id == sub.follower_id:
                    old.live = False
            self._subscribers = [
                s for s in self._subscribers if s.live
            ] + [sub]
            self._update_lag_gauge()
            self._cond.notify_all()
        if self._events.enabled:
            self._events.emit(
                "repl.subscribe",
                follower=follower_id,
                mode=mode,
                start_seq=start_seq,
                epoch=epoch,
            )
        return mode, sub

    def reset_after_snapshot(self, sub: Subscriber, last_seq: int) -> None:
        """Position ``sub`` right after a streamed snapshot."""
        with self._cond:
            sub.preload.clear()
            sub.next_seq = last_seq + 1
            sub.acked_seq = max(sub.acked_seq, last_seq)

    def unsubscribe(self, sub: Subscriber) -> None:
        with self._cond:
            sub.live = False
            if sub in self._subscribers:
                self._subscribers.remove(sub)
            self._update_lag_gauge()
            self._cond.notify_all()

    # ------------------------------------------------------- streaming
    def pull(
        self,
        sub: Subscriber,
        max_records: int = MAX_PULL_RECORDS,
        max_bytes: int = MAX_PULL_BYTES,
        timeout: float = 0.5,
    ) -> tuple[str, object]:
        """Blocking pull of the next batch for ``sub``.

        Returns one of ``("records", [record, ...])``, ``("idle",
        None)`` after ``timeout`` with nothing new, ``("gap", None)``
        when the subscriber's position fell out of the buffer (the
        caller restarts with a snapshot), or ``("goodbye", reason)``
        once the hub is shutting down.
        """
        with self._cond:
            while True:
                self._ring_state.read()
                if self._shutdown_reason is not None:
                    return "goodbye", self._shutdown_reason
                if not sub.live:
                    return "goodbye", "subscription replaced"
                batch = self._collect(sub, max_records, max_bytes)
                if batch is None:
                    return "gap", None
                if batch:
                    self._metrics.counter("repl.ship_records").inc(len(batch))
                    self._metrics.counter("repl.ship_bytes").inc(
                        sum(len(r) for r in batch)
                    )
                    return "records", batch
                if not self._cond.wait(timeout=timeout):
                    return "idle", None

    def _collect(
        self, sub: Subscriber, max_records: int, max_bytes: int
    ) -> Optional[list[bytes]]:
        """Next records for ``sub`` (empty = caught up, None = gap)."""
        out: list[bytes] = []
        size = 0
        while sub.preload and len(out) < max_records and size < max_bytes:
            record = sub.preload.popleft()
            out.append(record)
            size += len(record)
            # Each record carries its own sequence span; advancing
            # next_seq per record makes the handoff to the in-memory
            # ring skip any overlap between retained files and buffer.
            base, count = batch_seq_bounds(record)
            sub.next_seq = max(sub.next_seq, base + count)
        if out:
            return out
        if sub.next_seq < self._buffer_floor():
            return None  # evicted out from under the subscriber
        for base_seq, last_seq, record, _t in self._buffer:
            if last_seq < sub.next_seq:
                continue
            if len(out) >= max_records or size >= max_bytes:
                break
            out.append(record)
            size += len(record)
            sub.next_seq = last_seq + 1
        return out

    # ------------------------------------------------------------ acks
    def record_ack(self, sub: Subscriber, acked_seq: int) -> None:
        with self._cond:
            if acked_seq > sub.acked_seq:
                sub.acked_seq = acked_seq
                sub.acked_at = time.monotonic()
                self._metrics.counter("repl.acks").inc()
                self._update_lag_gauge()
                self._cond.notify_all()

    def wait_for_acks(
        self, seq: int, need: int, timeout: Optional[float] = None
    ) -> bool:
        """Block until ``need`` followers acked ``seq``; False on
        timeout (the caller surfaces STALLED to the client).

        Every wait — satisfied or timed out — records into the
        ``repl.ack_wait_seconds`` histogram, so the exposition shows
        the durability tax ack-gated writes actually pay.
        """
        if need <= 0:
            return True
        if timeout is None:
            timeout = self.ack_timeout_s
        start = time.monotonic()
        deadline = start + timeout
        try:
            with self._cond:
                while True:
                    have = sum(
                        1
                        for s in self._subscribers
                        if s.live and s.acked_seq >= seq
                    )
                    if have >= need:
                        return True
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._shutdown_reason is not None:
                        self._metrics.counter(
                            "repl.ack_wait_timeouts"
                        ).inc()
                        return False
                    self._cond.wait(timeout=remaining)
        finally:
            self._ack_wait_hist.record(time.monotonic() - start)

    def majority_need(self) -> int:
        """Follower acks required for a cluster majority (primary
        included): ``majority(n+1) - 1`` with ``n`` live followers."""
        with self._cond:
            n = sum(1 for s in self._subscribers if s.live)
        return (n + 1) // 2

    def resolve_need(self, ack_level: int) -> int:
        """Map a connection's ack level (-1 = majority) to a count."""
        return self.majority_need() if ack_level < 0 else ack_level

    # ------------------------------------------------------- admission
    def lag_records(self) -> int:
        """Lag of the most-caught-up live follower (0 with none)."""
        last = self._db.last_sequence
        with self._cond:
            lags = [
                max(0, last - s.acked_seq)
                for s in self._subscribers
                if s.live
            ]
        return min(lags) if lags else 0

    def write_admissible(self) -> bool:
        """Admission control: False when every follower lags too far
        behind (replication cannot keep up — push back on writers)."""
        if self.max_follower_lag is None:
            return True
        return self.lag_records() <= self.max_follower_lag

    def _lag_seconds(self, sub: Subscriber, now: float) -> float:
        """Age of the oldest record ``sub`` has not acked (lock held).

        0 when fully caught up; when the follower's position already
        fell off the ring, the newest *evicted* record's age is the
        best lower bound available.
        """
        if sub.acked_seq >= self._next_seq - 1:
            return 0.0
        for _base, last, _record, appended in self._buffer:
            if last > sub.acked_seq:
                return max(0.0, now - appended)
        if self._evicted_time is not None:
            return max(0.0, now - self._evicted_time)
        return 0.0

    def _update_lag_gauge(self) -> None:
        # Callers hold the condition lock.
        last = self._db.last_sequence
        now = time.monotonic()
        lags = []
        lag_seconds = []
        for s in self._subscribers:
            if not s.live:
                continue
            lags.append(max(0, last - s.acked_seq))
            lag_seconds.append(self._lag_seconds(s, now))
        self._metrics.gauge("repl.lag_records").set(max(lags) if lags else 0)
        self._metrics.gauge("repl.lag_seconds").set(
            max(lag_seconds) if lag_seconds else 0.0
        )
        self._metrics.gauge("repl.ring_records").set(len(self._buffer))
        self._metrics.gauge("repl.ring_bytes").set(self._buffer_bytes)
        self._metrics.gauge("repl.followers").set(len(lags))

    def refresh_gauges(self) -> None:
        """Recompute the health gauges now (scrape time).

        The gauges otherwise update on write/ack activity; an idle
        primary with a dead follower would keep reporting the stale
        last-event lag, so the exposition path refreshes first.
        """
        with self._cond:
            self._update_lag_gauge()
        self._metrics.gauge("repl.epoch").set(self._db.repl_epoch)

    # ------------------------------------------------------------ admin
    def followers_status(self) -> list[dict]:
        last = self._db.last_sequence
        now = time.monotonic()
        with self._cond:
            return [
                {
                    "id": s.follower_id,
                    "acked_seq": s.acked_seq,
                    "lag_records": max(0, last - s.acked_seq),
                    "lag_seconds": round(self._lag_seconds(s, now), 6),
                    "acked_age_seconds": round(max(0.0, now - s.acked_at), 6),
                }
                for s in self._subscribers
                if s.live
            ]

    @property
    def n_followers(self) -> int:
        with self._cond:
            return sum(1 for s in self._subscribers if s.live)

    def shutdown(self, reason: str = "server shutting down") -> None:
        """Wake every ship loop with a GOODBYE (graceful stop)."""
        first = False
        with self._cond:
            if self._shutdown_reason is None:
                self._shutdown_reason = reason
                first = True
                self._metrics.counter("repl.goodbyes").inc(
                    sum(1 for s in self._subscribers if s.live)
                )
            self._cond.notify_all()
        if first and self._events.enabled:
            self._events.emit("repl.goodbye", reason=reason)

    def detach(self) -> None:
        """Stop observing the DB (hub becomes inert)."""
        self._db.remove_wal_listener(self._on_record)
