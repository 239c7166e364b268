"""Server-side observability: per-opcode counters and latency tails.

The motivation for the whole server subsystem is making
compaction-induced write pauses visible *at the network edge*, so the
metrics layer is built around tail latency: every request records into
a log-bucketed histogram whose p50/p95/p99 are queryable over the wire
via the STATS opcode.

The histogram is :class:`repro.obs.LatencyHistogram`, and
:class:`ServerMetrics` is backed by a :class:`repro.obs.MetricsRegistry`
(counters under ``server.*`` and ``server.op.<NAME>.*``), while its
``snapshot()`` wire payload — the STATS opcode body — is byte-for-byte
what it always was.

Thread-safety: recording happens from the server's worker threads and
the asyncio loop; every obs metric carries its own lock, and a
registry-level snapshot is consistent per metric.
"""

from __future__ import annotations

from typing import Optional

from ..obs import MetricsRegistry
from .protocol import OPCODE_NAMES

__all__ = ["OpMetrics", "ServerMetrics"]


class OpMetrics:
    """Counters for one opcode, backed by registry metrics."""

    __slots__ = ("_requests", "_errors", "_bytes_in", "_bytes_out", "latency")

    def __init__(self, registry: MetricsRegistry, op_name: str) -> None:
        prefix = f"server.op.{op_name}"
        self._requests = registry.counter(f"{prefix}.requests")
        self._errors = registry.counter(f"{prefix}.errors")
        self._bytes_in = registry.counter(f"{prefix}.bytes_in")
        self._bytes_out = registry.counter(f"{prefix}.bytes_out")
        self.latency = registry.latency_histogram(f"{prefix}.latency")

    # Back-compat int views (older code read these as plain attributes).
    @property
    def requests(self) -> int:
        return self._requests.value

    @property
    def errors(self) -> int:
        return self._errors.value

    @property
    def bytes_in(self) -> int:
        return self._bytes_in.value

    @property
    def bytes_out(self) -> int:
        return self._bytes_out.value

    def record(
        self, seconds: float, bytes_in: int, bytes_out: int, error: bool
    ) -> None:
        self._requests.inc()
        self._bytes_in.inc(bytes_in)
        self._bytes_out.inc(bytes_out)
        self.latency.record(seconds)
        if error:
            self._errors.inc()

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "latency": self.latency.snapshot(),
        }


class ServerMetrics:
    """All counters of one server instance.

    ``registry`` may be shared (e.g. the DB's
    :class:`~repro.obs.Observability` registry) so server- and
    engine-side metrics land in one snapshot; by default each server
    gets its own.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.per_op: dict[int, OpMetrics] = {
            opcode: OpMetrics(self.registry, name)
            for opcode, name in OPCODE_NAMES.items()
        }
        self._stall_rejections = self.registry.counter("server.stall_rejections")
        self._protocol_errors = self.registry.counter("server.protocol_errors")
        self._conns_opened = self.registry.counter("server.connections_opened")
        self._conns_closed = self.registry.counter("server.connections_closed")

    # ------------------------------------------------------- recording
    def record(
        self,
        opcode: int,
        seconds: float,
        bytes_in: int,
        bytes_out: int,
        error: bool = False,
    ) -> None:
        self.per_op[opcode].record(seconds, bytes_in, bytes_out, error)

    def record_stall_rejection(self) -> None:
        self._stall_rejections.inc()

    def record_protocol_error(self) -> None:
        self._protocol_errors.inc()

    def connection_opened(self) -> None:
        self._conns_opened.inc()

    def connection_closed(self) -> None:
        self._conns_closed.inc()

    # ------------------------------------------------------- reporting
    @property
    def stall_rejections(self) -> int:
        return self._stall_rejections.value

    @property
    def protocol_errors(self) -> int:
        return self._protocol_errors.value

    @property
    def connections_opened(self) -> int:
        return self._conns_opened.value

    @property
    def connections_closed(self) -> int:
        return self._conns_closed.value

    @property
    def active_connections(self) -> int:
        return self.connections_opened - self.connections_closed

    def total_requests(self) -> int:
        return sum(op.requests for op in self.per_op.values())

    def op(self, opcode: int) -> OpMetrics:
        return self.per_op[opcode]

    def snapshot(self) -> dict:
        """A JSON-serialisable dict of everything (STATS opcode body)."""
        return {
            "ops": {
                OPCODE_NAMES[opcode]: op.snapshot()
                for opcode, op in self.per_op.items()
                if op.requests
            },
            "stall_rejections": self.stall_rejections,
            "protocol_errors": self.protocol_errors,
            "connections_opened": self.connections_opened,
            "connections_closed": self.connections_closed,
            "active_connections": self.active_connections,
        }

    def render(self) -> str:
        """Human-readable one-opcode-per-line summary."""
        snap = self.snapshot()
        lines = []
        for name, op in sorted(snap["ops"].items()):
            lat: Optional[dict] = op.get("latency")
            tail = ""
            if lat and lat.get("count"):
                tail = (
                    f"  p50={lat['p50_ms']:.3f}ms"
                    f" p95={lat['p95_ms']:.3f}ms p99={lat['p99_ms']:.3f}ms"
                )
            lines.append(
                f"{name:<8} n={op['requests']:<8} err={op['errors']:<4}"
                f" in={op['bytes_in']:<10} out={op['bytes_out']:<10}{tail}"
            )
        lines.append(
            f"connections: {snap['active_connections']} active"
            f" ({snap['connections_opened']} opened)"
            f"  stall_rejections: {snap['stall_rejections']}"
            f"  protocol_errors: {snap['protocol_errors']}"
        )
        return "\n".join(lines)
