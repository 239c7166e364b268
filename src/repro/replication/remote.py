"""A shard that lives in another process: the wire as a shard seam.

``RemoteShard`` implements the same shard interface
:class:`repro.cluster.ShardedDB` consumes — the
:class:`repro.cluster.ShardLike` protocol — by speaking the CRC-framed
wire protocol to a ``repro.server`` process.  The PR 5 facade then
composes local and remote shards transparently
(:meth:`repro.cluster.ShardedDB.from_shards`).

Construction performs the version hello and refuses servers whose
protocol major predates replication, so misuse fails with one clear
error instead of a frame desync mid-workload.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from ..analysis.locksan import make_lock
from ..db.db import WouldBlock
from ..lsm.ikey import KIND_VALUE
from ..obs import Observability
from ..server.client import CircuitBreaker, RetryPolicy, SyncClient
from .errors import ProtocolTooOldError

__all__ = ["RemoteShard"]

#: Page size used by the scan generators.
_SCAN_PAGE = 1024


class RemoteShard:
    """ShardLike adapter over one server connection (thread-safe)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        ack_level: Optional[int] = None,
        require_protocol: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.obs = obs if obs is not None else Observability()
        # SyncClient is not thread-safe; ShardedDB may be driven from
        # several server worker threads, so serialise all calls.
        self._lock = make_lock("repl.remote")
        self._client = SyncClient(
            host,
            port,
            timeout=timeout,
            retry_policy=retry_policy,
            breaker=breaker,
            metrics=self.obs.metrics,
        )
        major, minor = self._client.hello(ack_level=ack_level)
        if major < require_protocol:
            self._client.close()
            raise ProtocolTooOldError(
                f"server {host}:{port} speaks protocol {major}.{minor}; "
                f"remote shards need major >= {require_protocol}"
            )
        self.protocol = (major, minor)

    # ----------------------------------------------------------- writes
    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._client.put(key, value)

    def delete(self, key: bytes) -> None:
        with self._lock:
            self._client.delete(key)

    def write(self, batch) -> None:
        """Apply a :class:`repro.lsm.wal.WriteBatch` atomically."""
        if len(batch) == 0:
            return
        ops = [
            ("put", key, value) if kind == KIND_VALUE else ("delete", key)
            for kind, key, value in batch
        ]
        with self._lock:
            self._client.batch(ops)

    # ------------------------------------------------------------ reads
    def get(
        self, key: bytes, snapshot=None, wait: bool = True
    ) -> Optional[bytes]:
        self._reject_snapshot(snapshot)
        if not wait:
            raise WouldBlock("a remote shard answers over the network")
        with self._lock:
            return self._client.get(key)

    def multi_get(self, keys, snapshot=None) -> list[Optional[bytes]]:
        self._reject_snapshot(snapshot)
        keys = list(keys)
        with self._lock:
            with self._client.pipeline() as pipe:
                for key in keys:
                    pipe.get(key)
            return pipe.results

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot=None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Paged forward iteration (each page is one SCAN round trip)."""
        self._reject_snapshot(snapshot)
        cursor = start
        while True:
            with self._lock:
                pairs, truncated = self._client.scan(
                    cursor, end, limit=_SCAN_PAGE
                )
            yield from pairs
            if len(pairs) < _SCAN_PAGE and not truncated:
                return
            # Resume strictly after the last key seen (inclusive start).
            cursor = pairs[-1][0] + b"\x00"

    def scan_reverse(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot=None,
    ) -> Iterator[tuple[bytes, bytes]]:
        self._reject_snapshot(snapshot)
        cursor = end
        while True:
            with self._lock:
                pairs, truncated = self._client.scan(
                    start, cursor, limit=_SCAN_PAGE, reverse=True
                )
            yield from pairs
            if len(pairs) < _SCAN_PAGE and not truncated:
                return
            # [start, end): the last yielded key is the next exclusive
            # upper bound.
            cursor = pairs[-1][0]

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return self.scan()

    @staticmethod
    def _reject_snapshot(snapshot) -> None:
        if snapshot is not None:
            raise NotImplementedError(
                "remote shards do not support pinned snapshots"
            )

    # ------------------------------------------------------ maintenance
    def flush(self) -> None:
        with self._lock:
            self._client.flush()

    def compact_range(self, start=None, end=None) -> int:
        # The wire compaction is always full-range.
        with self._lock:
            return self._client.compact()

    def compact_all(self) -> int:
        with self._lock:
            return self._client.compact()

    def wait_for_compactions(self) -> None:
        """The server compacts synchronously inside OP_COMPACT."""

    # ------------------------------------------------------------ admin
    def promote(self, min_epoch: int = 0) -> int:
        """Promote the server behind this shard; returns its new epoch."""
        with self._lock:
            return self._client.promote(min_epoch)

    @property
    def retries(self) -> int:
        """Wire-level retries performed by the underlying client."""
        return self._client.retries

    def remote_stats(self) -> dict:
        """The server's full STATS document."""
        with self._lock:
            return self._client.stats()

    def metrics_snapshot(self) -> dict:
        """The remote engine's metrics: the STATS ``engine`` section."""
        return self.remote_stats()["engine"]

    def write_stalled(self, keys=None) -> bool:
        return bool(
            self.remote_stats().get("db", {}).get("write_stalled_now", False)
        )

    def num_files(self, level: int) -> int:
        if level == 0:
            return int(self.remote_stats().get("db", {}).get("l0_files", 0))
        return 0  # the wire only reports L0 depth

    def total_bytes(self) -> int:
        return int(self.remote_stats().get("db", {}).get("total_bytes", 0))

    def get_property(self, name: str) -> Optional[str]:
        return None  # engine introspection stays process-local

    def describe(self) -> str:
        return f"(remote shard {self.host}:{self.port})"

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "RemoteShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
