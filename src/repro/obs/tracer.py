"""Begin/end span tracing with Chrome trace-event export.

The paper's whole argument is a timeline claim — PCP overlaps S1/S7
I/O with S2–S6 compute (Eqs. 1–2) — so the engine needs to *show* its
timeline on live runs, not only in the offline simulator.  A
:class:`Tracer` records wall-clock spans with thread attribution; the
compaction backends emit one span per S1–S7 step per sub-task, and the
DB adds flush / stall / compaction umbrella spans.  Export targets:

* **Chrome trace-event JSON** (:meth:`Tracer.chrome_trace`), loadable
  in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` — one
  track per thread, so a real PCP run renders exactly like the paper's
  Fig. 6/7 overlap diagrams.
* **ASCII gantt** (:meth:`Tracer.render_gantt`), reusing the
  :mod:`repro.bench.gantt` renderer the simulator timelines use.

Overhead: a *disabled* tracer's :meth:`~Tracer.span` returns a shared
no-op context manager — no allocation, no clock read, no lock — so
instrumentation can stay in place on hot paths.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..analysis.locksan import make_lock

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "current_trace_context",
    "new_span_id",
    "new_trace_id",
    "pipeline_overlap",
    "trace_context",
]


# --------------------------------------------------------------- trace ids
#
# Distributed tracing needs ids that survive process boundaries: a
# *trace id* names one end-to-end request (minted by the client, carried
# in v2.1 request frames), and *span ids* name the nodes of its tree so
# a child span can point at its parent across a merged multi-process
# trace.  Ids are 48-bit ints — compact as varints on the wire, and the
# per-process random base makes span ids collision-free across the
# client / primary / follower processes that end up in one merged trace.

_SPAN_ID_BASE = int.from_bytes(os.urandom(3), "big") << 24
_span_counter = itertools.count(1)
_context = threading.local()


def new_trace_id() -> int:
    """A fresh random 48-bit trace id (non-zero)."""
    return int.from_bytes(os.urandom(6), "big") or 1


def new_span_id() -> int:
    """A fresh span id, unique within and across processes."""
    # next() on itertools.count is atomic under the GIL.
    return _SPAN_ID_BASE + next(_span_counter)


def current_trace_context() -> Optional[tuple[int, int]]:
    """The calling thread's ``(trace_id, parent_span_id)``, or None."""
    return getattr(_context, "value", None)


@contextmanager
def trace_context(trace_id: int, span_id: int):
    """Bind a trace context to the calling thread.

    While bound, every span recorded on this thread is stamped with
    ``trace_id``/``span_id``/``parent_span_id`` args and nested spans
    chain their parent ids — this is how a server worker thread links
    the DB/stall/replication spans it triggers back to the client span
    that sent the request.
    """
    prev = getattr(_context, "value", None)
    _context.value = (trace_id, span_id)
    try:
        yield
    finally:
        _context.value = prev


@dataclass(frozen=True)
class Span:
    """One completed interval: [start, end) seconds since tracer epoch."""

    name: str
    cat: str
    start: float
    end: float
    thread: str
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Shared no-op context manager: the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanScope:
    """Context manager that appends one Span on exit.

    When the calling thread carries a trace context the span is stamped
    with ``trace_id``/``span_id``/``parent_span_id`` and becomes the
    parent of any span nested inside it; with no context bound the
    extra cost is a single ``getattr``.  A span unwound by an exception
    whose class sets ``leaves_no_span`` (:class:`repro.db.WouldBlock`)
    is dropped.
    """

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start",
                 "_ctx", "_span_id")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_SpanScope":
        ctx = getattr(_context, "value", None)
        self._ctx = ctx
        if ctx is not None:
            self._span_id = new_span_id()
            _context.value = (ctx[0], self._span_id)
        self._start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        tracer = self._tracer
        end = tracer._clock()
        ctx = self._ctx
        if ctx is not None:
            _context.value = ctx
        if getattr(exc_type, "leaves_no_span", False):
            # Control flow, not work: the caller repeats the operation
            # and that attempt is the one the trace shows.
            return False
        thread = threading.current_thread()
        args = self._args
        if ctx is not None:
            args = dict(args)
            args["trace_id"] = ctx[0]
            args["span_id"] = self._span_id
            args["parent_span_id"] = ctx[1]
        tracer._append(
            Span(
                name=self._name,
                cat=self._cat,
                start=self._start - tracer._epoch,
                end=end - tracer._epoch,
                thread=thread.name,
                tid=thread.ident or 0,
                args=args,
            )
        )
        return False


class Tracer:
    """Records spans; exports Chrome trace JSON and ASCII gantts.

    ``max_spans`` bounds memory on long runs: past the cap new spans
    are counted in :attr:`dropped` instead of stored (keep-oldest, so
    a trace's beginning stays intact).
    """

    def __init__(self, enabled: bool = True, max_spans: int = 200_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self._clock = time.perf_counter
        self._epoch = self._clock()
        self._lock = make_lock("obs.tracer")
        self._spans: list[Span] = []

    # ------------------------------------------------------- recording
    def span(self, name: str, cat: str = "", **args):
        """Context manager timing one interval on the calling thread."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanScope(self, name, cat, args)

    def add_complete(
        self,
        name: str,
        start: float,
        end: float,
        cat: str = "",
        thread: Optional[str] = None,
        tid: Optional[int] = None,
        **args,
    ) -> None:
        """Record a span from explicit epoch-relative timestamps.

        For work whose begin/end the calling thread only observes after
        the fact (e.g. the process backend's remote compute stage).
        """
        if not self.enabled:
            return
        current = threading.current_thread()
        self._append(
            Span(
                name=name,
                cat=cat,
                start=start,
                end=end,
                thread=thread if thread is not None else current.name,
                tid=tid if tid is not None else (current.ident or 0),
                args=args,
            )
        )

    def now(self) -> float:
        """Seconds since the tracer's epoch (for add_complete)."""
        return self._clock() - self._epoch

    def _append(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    # -------------------------------------------------------- querying
    def spans(self, cat: Optional[str] = None) -> list[Span]:
        """A snapshot copy of recorded spans (optionally one category)."""
        with self._lock:
            spans = list(self._spans)
        if cat is not None:
            spans = [s for s in spans if s.cat == cat]
        return spans

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # --------------------------------------------------------- export
    def chrome_trace(self) -> dict:
        """The trace as a Chrome trace-event JSON object.

        Uses complete ("X") events in microseconds plus thread_name
        metadata, the subset every trace viewer understands.
        """
        pid = os.getpid()
        events = []
        seen_tids: dict[int, str] = {}
        for span in self.spans():
            if span.tid not in seen_tids:
                seen_tids[span.tid] = span.thread
            events.append(
                {
                    "name": span.name,
                    "cat": span.cat or "span",
                    "ph": "X",
                    "pid": pid,
                    "tid": span.tid,
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "args": span.args,
                }
            )
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
            for tid, name in seen_tids.items()
        ]
        return {"displayTimeUnit": "ms", "traceEvents": meta + events}

    def write_chrome_trace(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the span count."""
        trace = self.chrome_trace()
        with open(path, "w") as f:
            json.dump(trace, f, indent=None, separators=(",", ":"))
        return sum(1 for e in trace["traceEvents"] if e["ph"] == "X")

    def render_gantt(self, width: int = 72, cats: Optional[set] = None) -> str:
        """ASCII gantt of the recorded spans (same renderer as the
        simulator's schedules; see :mod:`repro.bench.gantt`)."""
        from ..bench.gantt import render_gantt, schedule_from_spans

        return render_gantt(schedule_from_spans(self.spans(), cats), width)


#: Shared disabled tracer: instrumented code does ``tracer or NULL_TRACER``
#: so the un-traced hot path costs one attribute check per span.
NULL_TRACER = Tracer(enabled=False)


def pipeline_overlap(
    spans: Sequence[Span],
    read_cat: str = "read",
    compute_cat: str = "compute",
) -> Optional[tuple[Span, Span]]:
    """First (read, compute) span pair of *different* sub-tasks that
    overlap in wall time — the paper's pipelining claim, checked on a
    real trace.  Returns None when the schedule never overlapped.
    """
    reads = [s for s in spans if s.cat == read_cat]
    computes = [s for s in spans if s.cat == compute_cat]
    for r in reads:
        r_sub = r.args.get("subtask")
        for c in computes:
            if c.args.get("subtask") == r_sub:
                continue
            if r.start < c.end and c.start < r.end:
                return (r, c)
    return None
