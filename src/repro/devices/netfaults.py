"""Seed-deterministic network fault injection: a TCP chaos proxy.

:mod:`repro.devices.faults` injects the *storage* failures the engine
must survive; this module is its network twin.  A served replica set
sees a class of failures no storage plan can model — refused
connections, latency spikes, asymmetric partitions, connections cut in
the middle of a frame — and the replication layer's failover story is
only trustworthy if those failures are injectable on demand, in tests,
deterministically.

:class:`FaultyProxy` is a threaded TCP proxy that forwards one
listening endpoint to one upstream server, driven by a declarative
:class:`NetFaultPlan` (same idiom as :class:`~repro.devices.faults.
FaultPlan`: probabilistic *and* nth-op triggers, one seed, JSON
round-trip for the ``dbtool chaos-proxy`` CLI):

* **refuse** — accept then immediately close the Nth (or a seeded
  fraction of) inbound connections;
* **cut** — drop a live connection on a chosen relayed chunk, with
  ``cut_mid_frame`` forwarding a seeded prefix first so the peer sees
  a torn frame (the CRC layer must catch it);
* **latency** — per-chunk fixed + seeded-jitter delay;
* **black hole** — swallow bytes in one direction (or both) while the
  socket stays open: the asymmetric partition that makes a primary
  look alive to TCP but dead to its followers;
* **flip** — forward a chosen chunk with its last byte inverted: a
  whole frame arrives, its CRC trailer does not match, and the
  connection stays up — the peer must notice and drop it itself.

Runtime controls (:meth:`FaultyProxy.partition` / :meth:`~FaultyProxy.
heal` / :meth:`~FaultyProxy.drop_connections`) drive kill/partition/
heal schedules from a test harness; injections are mirrored into
``net.fault_injected`` counters and event-log records once
:meth:`FaultyProxy.attach_obs` is called.

Determinism: all randomness derives from ``NetFaultPlan.seed`` through
one shared PRNG, so a fixed plan over a fixed *operation sequence*
(connections accepted, chunks relayed per direction) injects the same
faults.  Chunk boundaries depend on the OS, so tests that need exact
aiming use the ``fail_nth`` connection trigger, partitions, and the
runtime controls — none of which depend on how TCP slices the stream.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .faults import _DeterministicRNG

__all__ = ["NetFaultPlan", "FaultyProxy"]

#: Op kinds a plan may aim ``fail_nth`` at: inbound connections and
#: relayed chunks per direction (client→server / server→client).
_NET_OP_KINDS = ("connect", "c2s", "s2c")

_BLACKHOLE_MODES = ("c2s", "s2c", "both")


@dataclass(frozen=True)
class NetFaultPlan:
    """Declarative description of the network faults to inject.

    ``refuse_rate`` closes a seeded fraction of inbound connections
    right after accept; ``cut_rate`` drops a live connection on a
    seeded fraction of relayed chunks (either direction).
    ``fail_nth`` maps an op kind (``connect``/``c2s``/``s2c``) to a
    1-based global op index that faults exactly once — deterministic
    aiming for "the 3rd connection is refused".  ``latency_ms`` (+
    seeded ``latency_jitter_ms``) delays every relayed chunk.
    ``blackhole`` swallows bytes in one direction (``c2s``/``s2c``) or
    ``both`` while connections stay open — an asymmetric partition.
    ``cut_mid_frame`` makes cuts tear the chunk: a seeded prefix is
    forwarded before the close.  ``flip_nth`` maps a direction
    (``c2s``/``s2c``) to the 1-based chunk index that is forwarded with
    its last byte inverted (outside the budget, like the other
    non-closing faults).  ``max_faults`` bounds refuse+cut
    injections (black-holing and latency are continuous conditions,
    not budgeted events); ``None`` means unbounded.
    """

    seed: int = 0
    refuse_rate: float = 0.0
    cut_rate: float = 0.0
    latency_ms: float = 0.0
    latency_jitter_ms: float = 0.0
    blackhole: Optional[str] = None
    cut_mid_frame: bool = False
    fail_nth: dict = field(default_factory=dict)
    flip_nth: dict = field(default_factory=dict)
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("refuse_rate", "cut_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {rate}")
        for name in ("latency_ms", "latency_jitter_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.blackhole is not None and self.blackhole not in _BLACKHOLE_MODES:
            raise ValueError(
                f"blackhole must be one of {_BLACKHOLE_MODES}, "
                f"got {self.blackhole!r}"
            )
        for name, kinds in (
            ("fail_nth", _NET_OP_KINDS), ("flip_nth", _NET_OP_KINDS[1:])
        ):
            for kind, nth in getattr(self, name).items():
                if kind not in kinds:
                    raise ValueError(f"{name}: unknown op kind {kind!r}")
                if nth < 1:
                    raise ValueError(
                        f"{name}[{kind!r}] must be >= 1, got {nth}"
                    )

    def to_json(self) -> str:
        defaults = NetFaultPlan()
        data = {
            name: getattr(self, name)
            for name in defaults.__dataclass_fields__
            if name == "seed" or getattr(self, name) != getattr(defaults, name)
        }
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NetFaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("net fault plan JSON must be an object")
        return cls(**data)


class _ConnPair:
    """One proxied connection: client socket, upstream socket, pumps."""

    __slots__ = ("client", "upstream", "closed")

    def __init__(self, client: socket.socket, upstream: socket.socket) -> None:
        self.client = client
        self.upstream = upstream
        self.closed = False

    def close(self) -> None:
        # Idempotent, never raises: both pumps and the proxy's own
        # close path race to tear a pair down.
        self.closed = True
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class FaultyProxy:
    """Fault-injecting TCP proxy in front of ``upstream_host:port``.

    Thread-safe: fault decisions for every connection draw from one
    seeded RNG under one lock, runtime controls (:meth:`partition`,
    :meth:`set_plan`, :meth:`drop_connections`) may be called from any
    thread.  ``injected`` counts injections by kind (``refuse`` /
    ``cut`` / ``blackhole`` / ``latency`` / ``flip``).
    """

    #: Socket timeout on both pump directions; bounds how fast close()
    #: and partition changes are noticed.
    _TICK_S = 0.25

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: Optional[NetFaultPlan] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        from ..analysis.locksan import make_lock

        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.host = host
        self._lock = make_lock("devices.netfaults")
        self._stop = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._pairs: set[_ConnPair] = set()
        self._conn_seq = 0
        self.injected: dict[str, int] = {}
        self._metrics = None
        self._events = None
        #: runtime partition overlay (OR-ed with the plan's blackhole).
        self._partition: Optional[str] = None
        self._requested_port = port
        self.set_plan(plan or NetFaultPlan())

    # --------------------------------------------------------- lifecycle
    def start(self) -> "FaultyProxy":
        if self._listener is not None:
            raise RuntimeError("proxy already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(64)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"netfault-accept-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("proxy not started")
        return self._listener.getsockname()[1]

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)

    def close(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        self.drop_connections(count=False)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self) -> "FaultyProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---------------------------------------------------------- controls
    def set_plan(self, plan: NetFaultPlan) -> None:
        """Install ``plan`` (resets the RNG and the op counters)."""
        with self._lock:
            self.plan = plan
            self._rng = _DeterministicRNG(plan.seed)
            self._op_counts = {k: 0 for k in _NET_OP_KINDS}
            self._faults_injected = 0

    def partition(self, direction: str = "both") -> None:
        """Black-hole live *and* future connections in ``direction``.

        The sockets stay open — peers see silence, not a reset — which
        is exactly the failure heartbeat deadlines exist to catch.
        """
        if direction not in _BLACKHOLE_MODES:
            raise ValueError(
                f"direction must be one of {_BLACKHOLE_MODES}, "
                f"got {direction!r}"
            )
        with self._lock:
            self._partition = direction

    def heal(self) -> None:
        """Lift a :meth:`partition` (the plan's own blackhole stays)."""
        with self._lock:
            self._partition = None

    @property
    def partitioned(self) -> Optional[str]:
        with self._lock:
            return self._partition

    def drop_connections(self, count: bool = True) -> int:
        """Hard-close every live proxied connection (both sides)."""
        with self._lock:
            pairs = list(self._pairs)
            self._pairs.clear()
        for pair in pairs:
            pair.close()
        if pairs and count:
            self._note("cut", "drop_connections", n=len(pairs))
        return len(pairs)

    @property
    def n_connections(self) -> int:
        with self._lock:
            return len(self._pairs)

    def attach_obs(self, metrics=None, events=None) -> None:
        """Mirror injections into ``net.fault_injected`` counters and
        (optionally) event-log records."""
        with self._lock:
            self._metrics = metrics
            self._events = events
            if metrics is not None:
                total = sum(self.injected.values())
                if total:
                    metrics.counter("net.fault_injected").inc(total)
                for kind, n in self.injected.items():
                    metrics.counter(f"net.fault_injected.{kind}").inc(n)

    # ------------------------------------------------------ fault engine
    def _note(self, kind: str, detail: str, n: int = 1) -> None:
        """Record ``n`` injections of ``kind`` (outside self._lock)."""
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + n
            metrics, events = self._metrics, self._events
        if metrics is not None:
            metrics.counter("net.fault_injected").inc(n)
            metrics.counter(f"net.fault_injected.{kind}").inc(n)
        if events is not None and events.enabled:
            events.emit("net.fault_injected", kind=kind, detail=detail, n=n)

    def _decide(self, kind: str) -> bool:
        """Should op ``kind`` fault?  (connect→refuse, chunk→cut)"""
        with self._lock:
            self._op_counts[kind] += 1
            n = self._op_counts[kind]
            plan = self.plan
            budget = (
                plan.max_faults is None
                or self._faults_injected < plan.max_faults
            )
            hit = plan.fail_nth.get(kind) == n
            if not hit and budget:
                rate = plan.refuse_rate if kind == "connect" else plan.cut_rate
                hit = rate > 0.0 and self._rng.uniform() < rate
            elif hit and not budget:
                hit = False
            if hit:
                self._faults_injected += 1
            return hit

    def _latency_s(self) -> float:
        with self._lock:
            plan = self.plan
            if plan.latency_ms <= 0 and plan.latency_jitter_ms <= 0:
                return 0.0
            jitter = (
                plan.latency_jitter_ms * self._rng.uniform()
                if plan.latency_jitter_ms > 0
                else 0.0
            )
            return (plan.latency_ms + jitter) / 1e3

    def _blackholed(self, direction: str) -> bool:
        with self._lock:
            for mode in (self._partition, self.plan.blackhole):
                if mode is not None and mode in (direction, "both"):
                    return True
            return False

    def _flips(self, direction: str) -> bool:
        """Is the chunk ``_decide`` just counted the one to corrupt?"""
        with self._lock:
            return (
                self.plan.flip_nth.get(direction)
                == self._op_counts[direction]
            )

    def _torn_prefix(self, chunk: bytes) -> bytes:
        with self._lock:
            if not self.plan.cut_mid_frame or len(chunk) < 2:
                return b""
            return chunk[: 1 + self._rng.randrange(len(chunk) - 1)]

    # ----------------------------------------------------------- pumping
    def _accept_loop(self) -> None:
        assert self._listener is not None
        self._listener.settimeout(self._TICK_S)
        while not self._stop.is_set():
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            if self._decide("connect"):
                self._note("refuse", "connect refused")
                try:
                    client.close()
                except OSError:
                    pass
                continue
            try:
                upstream = socket.create_connection(
                    (self.upstream_host, self.upstream_port), timeout=5.0
                )
            except OSError:
                # Upstream genuinely down: behave like it (refuse), but
                # do not count it as an injection.
                try:
                    client.close()
                except OSError:
                    pass
                continue
            for sock in (client, upstream):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(self._TICK_S)
            pair = _ConnPair(client, upstream)
            with self._lock:
                if self._stop.is_set():
                    pair.close()
                    return
                self._pairs.add(pair)
                self._conn_seq += 1
                conn_id = self._conn_seq
            for direction, src, dst in (
                ("c2s", client, upstream),
                ("s2c", upstream, client),
            ):
                threading.Thread(
                    target=self._pump,
                    args=(pair, src, dst, direction),
                    name=f"netfault-{direction}-{conn_id}",
                    daemon=True,
                ).start()

    def _pump(
        self,
        pair: _ConnPair,
        src: socket.socket,
        dst: socket.socket,
        direction: str,
    ) -> None:
        try:
            while not self._stop.is_set() and not pair.closed:
                try:
                    chunk = src.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    return  # peer closed; tear down both directions
                if self._decide(direction):
                    prefix = self._torn_prefix(chunk)
                    if prefix:
                        try:
                            dst.sendall(prefix)
                        except OSError:
                            pass
                    self._note(
                        "cut",
                        f"{direction} cut"
                        + (f" after {len(prefix)}B torn prefix" if prefix
                           else ""),
                    )
                    return
                if self._flips(direction):
                    chunk = chunk[:-1] + bytes((chunk[-1] ^ 0xFF,))
                    self._note("flip", f"{direction} last byte inverted")
                delay = self._latency_s()
                if delay > 0:
                    self._note("latency", f"{direction} +{delay * 1e3:.1f}ms")
                    time.sleep(delay)
                if self._blackholed(direction):
                    self._note("blackhole", f"{direction} swallowed")
                    continue
                try:
                    dst.sendall(chunk)
                except OSError:
                    return
        finally:
            pair.close()
            with self._lock:
                self._pairs.discard(pair)
