"""Structured JSONL lifecycle event log + slow-op log.

Metrics say *how much*, traces say *when*; the event log says *what
happened* — one JSON object per line, machine-greppable, covering the
engine's discrete lifecycle transitions:

==========================  =============================================
event                       emitted by
==========================  =============================================
``flush``                   DB memtable flush (bytes, seconds, L0 depth)
``stall.enter`` / ``.exit`` DB write-stall boundary (L0 backlog)
``compaction.start``        background compaction picked inputs
``compaction.end``          compaction finished (outputs, seconds, ``pass`` =
                            input blocks written out as stored, ``reuse`` =
                            rebuilt blocks that took an input's payload)
``compaction.retry``        transient I/O error, backing off
``compaction.quarantine``   corrupt input sidelined
``fence``                   replication epoch bumped (failover fencing)
``repl.subscribe``          hub accepted a follower (wal/snapshot mode)
``repl.goodbye``            hub said goodbye on shutdown
``follower.resubscribe``    follower lost the stream and is retrying
``follower.snapshot``       follower installed a full SST snapshot
``slow_op``                 server op exceeded the slow-op threshold
``failover.detected``       coordinator declared the primary dead
``failover.elected``        coordinator picked the most-caught-up
                            follower to promote
``failover.promoted``       a node became primary (coordinator side and
                            server side on ``PROMOTE``)
``net.fault_injected``      chaos proxy injected a network fault
                            (refuse/cut/blackhole/latency)
==========================  =============================================

Every record carries ``ts`` (epoch seconds), ``event``, and ``thread``;
the rest is event-specific.  A disabled log (no sink) is a no-op whose
``emit`` costs one attribute check — instrumentation stays in place on
hot paths, mirroring ``NULL_TRACER``.

The sink is either a path (append mode, line-buffered by explicit
flush), a file-like object with ``write``, or a callable taking the
record dict (handy in tests).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Optional, Union

from ..analysis.locksan import make_lock
from ..analysis.racesan import shared_state

__all__ = ["EventLog", "NULL_EVENTS"]


class EventLog:
    """Thread-safe structured event log writing JSON lines.

    ``slow_op_threshold_s`` arms :meth:`slow_op`: ops at or above the
    threshold are logged, faster ones skipped.  ``None`` (default)
    disables the slow-op log even when lifecycle events are on.
    """

    def __init__(
        self,
        sink: Union[None, str, Callable] = None,
        *,
        slow_op_threshold_s: Optional[float] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._file = None
        self._sink: Optional[Callable[[dict], None]] = None
        if isinstance(sink, str):
            self._file = open(sink, "a")  # noqa: SIM115 - closed in close()
            self._sink = self._write_line
        elif callable(sink):
            self._sink = sink
        elif sink is not None:  # file-like
            self._file = sink
            self._sink = self._write_line
        self.slow_op_threshold_s = slow_op_threshold_s
        self._clock = clock
        self._lock = make_lock("obs.events")
        self._state = shared_state("obs.events.sink")
        self.emitted = 0

    # ``enabled`` is the hot-path guard: instrumented code does
    # ``if events.enabled: events.emit(...)`` so building the kwargs
    # dict is skipped entirely when nothing is listening.
    @property
    def enabled(self) -> bool:
        return self._sink is not None

    def _write_line(self, record: dict) -> None:
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()

    def emit(self, event: str, **fields) -> None:
        """Append one event record; no-op when no sink is configured."""
        sink = self._sink
        if sink is None:
            return
        record = {
            "ts": round(self._clock(), 6),
            "event": event,
            "thread": threading.current_thread().name,
        }
        record.update(fields)
        with self._lock:
            self._state.write()
            self.emitted += 1
            sink(record)

    def slow_op(self, op: str, seconds: float, **fields) -> None:
        """Log an operation that exceeded the slow-op threshold."""
        threshold = self.slow_op_threshold_s
        if threshold is None or seconds < threshold or self._sink is None:
            return
        self.emit(
            "slow_op",
            op=op,
            seconds=round(seconds, 6),
            threshold_s=threshold,
            **fields,
        )

    def close(self) -> None:
        with self._lock:
            self._state.write()
            if self._file is not None:
                try:
                    self._file.close()
                finally:
                    self._file = None
                    self._sink = None


#: Shared disabled log: instrumented code does ``events or NULL_EVENTS``
#: so the un-logged path costs one attribute check per site.
NULL_EVENTS = EventLog()
