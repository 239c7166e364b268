"""The benchmark's own span recorder.

Spans are recorded from ``perf/`` only, around calls into a layer's
public functions; nothing inside the program is instrumented.  A span
has a name (``<layer>.<what>``), a start, an end, the span that caused
it and, for served workloads, the request it belongs to.  Spans stay in
memory until the run ends and are then written as Chrome-trace JSON
(load it at ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Trace:
    def __init__(self) -> None:
        # One record per span: [name, start, end, parent record, request, thread].
        self.spans: list[list] = []
        self._local = threading.local()
        self._threads = 0

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            self._threads += 1
            local.tid = self._threads
        return local

    @contextmanager
    def span(self, name: str, request: int | None = None):
        local = self._thread_state()
        parent = local.stack[-1] if local.stack else None
        if request is None and parent is not None:
            request = parent[4]
        record = [name, time.perf_counter(), None, parent, request, local.tid]
        local.stack.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            local.stack.pop()
            self.spans.append(record)

    # -- reading -------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def median_us(self, name: str) -> float:
        """Median duration of the spans called ``name`` in microseconds (0 if none)."""
        d = self.durations(name)
        return statistics.median(d) * 1e6 if d else 0.0

    def total_s(self, name: str) -> float:
        return sum(self.durations(name))

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus what its child spans cover."""
        children: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                children[id(s[3])] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[0]] += (s[2] - s[1]) - children.get(id(s), 0.0)
        return dict(out)

    # -- writing -------------------------------------------------------
    def chrome_trace(self) -> dict:
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        ids = {id(s): i for i, s in enumerate(self.spans)}
        origin = min(s[1] for s in self.spans)
        events = []
        for i, (name, start, end, parent, request, tid) in enumerate(self.spans):
            args = {"id": i}
            if parent is not None:
                args["parent"] = ids[id(parent)]
            if request is not None:
                args["request"] = request
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f, separators=(",", ":"))
