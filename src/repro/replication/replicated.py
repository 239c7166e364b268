"""Read/write policy over a replica set: one logical shard, N servers.

``ReplicatedShard`` fronts a primary and its followers with the same
ShardLike surface as a local DB or a single :class:`RemoteShard`:

* **Writes** go to the primary, acked at the connection's configured
  ack level (0 = local durability only, N = that many follower acks,
  ``"majority"`` = a cluster majority).  The ack level rides in the
  hello, so the server's write path enforces it.
* **Reads** are primary-first.  When the primary is down or stalled
  and ``allow_stale`` is set, reads fall back to the most-caught-up
  follower — explicitly stale (bounded by replication lag), never
  write-losing.
* **Failover** can be manual (``dbtool promote`` bumps a follower's
  fencing epoch; the next role refresh sees the higher epoch and
  redirects writes) or automatic (``auto_failover=True`` embeds a
  :class:`~repro.replication.failover.FailoverCoordinator` that
  detects a dead primary by missed health probes, promotes the
  most-caught-up follower over the wire, and repoints this client —
  no human in the loop).  Either way the fenced old primary refuses
  subscriptions, so a partitioned stale primary cannot silently accept
  acked writes from this client once the refresh ran.
* **Resilience**: pass a :class:`~repro.server.retry.RetryPolicy` to
  give every underlying connection jittered-backoff retries, and each
  endpoint gets its own circuit breaker so a dead replica is skipped
  after a few failures instead of costing a connect timeout per call.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from ..analysis.locksan import make_lock
from ..db.db import WouldBlock
from ..obs import Observability
from ..server.client import ClientError, ServerBusyError
from ..server.retry import CircuitBreaker, RetryPolicy
from .errors import ReplicationError
from .remote import RemoteShard

__all__ = ["ReplicatedShard"]

_RETRYABLE = (OSError, ConnectionError, ClientError)


class ReplicatedShard:
    """ShardLike facade over ``[(host, port), ...]`` replica endpoints."""

    def __init__(
        self,
        endpoints: list[tuple[str, int]],
        ack_level: Union[int, str] = 1,
        allow_stale: bool = True,
        timeout: Optional[float] = 10.0,
        retry_policy: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
        auto_failover: bool = False,
        failover_interval_s: float = 0.5,
        failover_threshold: int = 3,
    ) -> None:
        if not endpoints:
            raise ValueError("need at least one endpoint")
        self.endpoints = list(endpoints)
        self.ack_level = -1 if ack_level == "majority" else int(ack_level)
        self.allow_stale = allow_stale
        self.obs = obs if obs is not None else Observability()
        self._timeout = timeout
        self._retry_policy = retry_policy
        self._lock = make_lock("repl.replicated")
        self._conns: dict[tuple[str, int], RemoteShard] = {}
        # One breaker per endpoint, shared across reconnects, so a dead
        # replica fails fast instead of costing a connect timeout on
        # every role refresh while it is down.
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}
        self._primary: Optional[tuple[str, int]] = None
        self._coordinator = None
        self._refresh_roles()
        if auto_failover:
            from .failover import FailoverCoordinator

            self._coordinator = FailoverCoordinator(
                self.endpoints,
                heartbeat_interval_s=failover_interval_s,
                failure_threshold=failover_threshold,
                obs=self.obs,
                on_failover=self._after_failover,
            ).start()

    # -------------------------------------------------------- discovery
    def _after_failover(self, endpoint: tuple[str, int], epoch: int) -> None:
        """Coordinator callback: a follower was just promoted."""
        self._refresh_roles()

    def _connect(self, endpoint: tuple[str, int]) -> RemoteShard:
        conn = self._conns.get(endpoint)
        if conn is None:
            breaker = self._breakers.get(endpoint)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=3, reset_timeout_s=1.0
                )
                self._breakers[endpoint] = breaker
            conn = RemoteShard(
                endpoint[0],
                endpoint[1],
                timeout=self._timeout,
                ack_level=self.ack_level,
                retry_policy=self._retry_policy,
                breaker=breaker,
                obs=self.obs,
            )
            self._conns[endpoint] = conn
        return conn

    def _drop(self, endpoint: tuple[str, int]) -> None:
        conn = self._conns.pop(endpoint, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _refresh_roles(self) -> list[Optional[dict]]:
        """Probe every endpoint; elect the primary with the highest
        fencing epoch (a promoted follower outranks its old primary).

        Returns each endpoint's ``repl`` stats, ``None`` where it was
        unreachable."""
        with self._lock:
            best: Optional[tuple[int, tuple[str, int]]] = None
            probes: list[Optional[dict]] = []
            for endpoint in self.endpoints:
                try:
                    repl = self._connect(endpoint).remote_stats().get(
                        "repl", {}
                    )
                except _RETRYABLE:
                    self._drop(endpoint)
                    probes.append(None)
                    continue
                probes.append(repl)
                if repl.get("role", "primary") == "primary":
                    epoch = int(repl.get("epoch", 0))
                    if best is None or epoch > best[0]:
                        best = (epoch, endpoint)
            self._primary = best[1] if best else None
            return probes

    def _primary_conn(self) -> RemoteShard:
        with self._lock:
            primary = self._primary
        if primary is None:
            self._refresh_roles()
            with self._lock:
                primary = self._primary
        if primary is None:
            raise ReplicationError(
                f"no reachable primary among {self.endpoints}"
            )
        with self._lock:
            return self._connect(primary)

    def _fallback_conn(self) -> Optional[RemoteShard]:
        """Most-caught-up reachable non-primary replica, if any."""
        best: Optional[tuple[int, RemoteShard]] = None
        with self._lock:
            primary = self._primary
            candidates = [e for e in self.endpoints if e != primary]
        for endpoint in candidates:
            try:
                with self._lock:
                    conn = self._connect(endpoint)
                repl = conn.remote_stats().get("repl", {})
                applied = int(repl.get("applied_seq", 0))
            except _RETRYABLE:
                with self._lock:
                    self._drop(endpoint)
                continue
            if best is None or applied > best[0]:
                best = (applied, conn)
        return best[1] if best else None

    def _on_primary(self, fn, *args, **kwargs):
        """Run against the primary, refreshing roles once on failure."""
        try:
            return fn(self._primary_conn(), *args, **kwargs)
        except _RETRYABLE:
            with self._lock:
                if self._primary is not None:
                    self._drop(self._primary)
                self._primary = None
            return fn(self._primary_conn(), *args, **kwargs)

    def _read(self, fn, *args, **kwargs):
        """Primary-first read with optional stale follower fallback."""
        try:
            return self._on_primary(fn, *args, **kwargs)
        except (ReplicationError, ServerBusyError, *_RETRYABLE):
            if not self.allow_stale:
                raise
            fallback = self._fallback_conn()
            if fallback is None:
                raise
            return fn(fallback, *args, **kwargs)

    # ----------------------------------------------------------- writes
    def put(self, key: bytes, value: bytes) -> None:
        self._on_primary(lambda c: c.put(key, value))

    def delete(self, key: bytes) -> None:
        self._on_primary(lambda c: c.delete(key))

    def write(self, batch) -> None:
        self._on_primary(lambda c: c.write(batch))

    # ------------------------------------------------------------ reads
    def get(
        self, key: bytes, snapshot=None, wait: bool = True
    ) -> Optional[bytes]:
        if not wait:
            raise WouldBlock("a replica set answers over the network")
        return self._read(lambda c: c.get(key, snapshot=snapshot))

    def multi_get(self, keys, snapshot=None) -> list[Optional[bytes]]:
        keys = list(keys)
        return self._read(lambda c: c.multi_get(keys, snapshot=snapshot))

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot=None,
    ) -> Iterator[tuple[bytes, bytes]]:
        # Materialised per call so the fallback decision happens here,
        # not lazily inside a half-consumed generator.
        return iter(
            self._read(
                lambda c: list(c.scan(start, end, snapshot=snapshot))
            )
        )

    def scan_reverse(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot=None,
    ) -> Iterator[tuple[bytes, bytes]]:
        return iter(
            self._read(
                lambda c: list(c.scan_reverse(start, end, snapshot=snapshot))
            )
        )

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return self.scan()

    # ------------------------------------------------------ maintenance
    def flush(self) -> None:
        self._on_primary(lambda c: c.flush())

    def compact_range(self, start=None, end=None) -> int:
        return self._on_primary(lambda c: c.compact_range(start, end))

    def compact_all(self) -> int:
        return self._on_primary(lambda c: c.compact_all())

    def wait_for_compactions(self) -> None:
        pass

    # ------------------------------------------------------------ admin
    def metrics_snapshot(self) -> dict:
        return self._read(lambda c: c.metrics_snapshot())

    def write_stalled(self, keys=None) -> bool:
        try:
            return self._on_primary(lambda c: c.write_stalled(keys=keys))
        except (ReplicationError, *_RETRYABLE):
            return True  # unreachable primary = not accepting writes

    def num_files(self, level: int) -> int:
        return self._read(lambda c: c.num_files(level))

    def total_bytes(self) -> int:
        return self._read(lambda c: c.total_bytes())

    def describe(self) -> str:
        with self._lock:
            primary = self._primary
        return f"(replicated shard primary={primary} of {self.endpoints})"

    def status(self) -> dict:
        """Role map from one probe of every endpoint."""
        probes = self._refresh_roles()
        with self._lock:
            primary = self._primary
        endpoints = []
        for (host, port), repl in zip(self.endpoints, probes):
            name = f"{host}:{port}"
            if repl is None:
                endpoints.append({"endpoint": name, "reachable": False})
            else:
                endpoints.append(dict(repl, endpoint=name, reachable=True))
        return {
            "endpoints": endpoints,
            "primary": None if primary is None else f"{primary[0]}:{primary[1]}",
        }

    def retries(self) -> int:
        """Total wire-level retries across all live connections."""
        with self._lock:
            return sum(conn.retries for conn in self._conns.values())

    def close(self) -> None:
        if self._coordinator is not None:
            self._coordinator.stop()
            self._coordinator = None
        with self._lock:
            for endpoint in list(self._conns):
                self._drop(endpoint)

    def __enter__(self) -> "ReplicatedShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
