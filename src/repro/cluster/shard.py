"""The shard contract, made explicit.

:class:`repro.cluster.ShardedDB` was written against ``repro.db.DB``
and consumed its surface implicitly.  With replication in the tree
there are now three things that can sit behind one shard slot — a
local :class:`repro.db.DB`, a :class:`repro.replication.RemoteShard`
(the same engine in another process, reached over the wire), and a
:class:`repro.replication.ReplicatedShard` (a primary/follower replica
set) — so the contract is spelled out as a ``typing.Protocol``.

``ShardLike`` is structural: none of the implementations inherit from
it, they just satisfy it (checked by the conformance test in
``tests/replication/test_shardlike.py``).  Optional capabilities stay
*out* of the protocol on purpose:

* ``snapshot()`` / ``cursor()`` — only local shards pin snapshots;
  :meth:`ShardedDB.scan` falls back to a heap merge of per-shard scans
  when any shard cannot produce a cursor;
* ``obs`` — every implementation happens to carry an
  :class:`repro.obs.Observability` bundle, but a remote shard's holds
  its client's counters, not the remote engine's; the engine's counts
  are what ``metrics_snapshot`` returns.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol, runtime_checkable

__all__ = ["ShardLike"]


@runtime_checkable
class ShardLike(Protocol):
    """What :class:`ShardedDB` requires of each shard.

    Semantics the types cannot express:

    * ``write`` applies a :class:`repro.lsm.wal.WriteBatch`
      atomically *within this shard*;
    * ``get(..., wait=False)`` answers without waiting (no lock wait,
      no file open, no device or network I/O) or raises
      :class:`repro.db.WouldBlock`;
    * ``scan``/``scan_reverse`` yield the half-open window
      ``[start, end)`` in key order (descending for reverse);
    * ``write_stalled`` is advisory backpressure — True means a write
      issued now would block or be rejected;
    * ``metrics_snapshot`` returns the shard engine's cumulative
      metrics, shaped like :meth:`repro.obs.MetricsRegistry.snapshot`;
    * ``close`` is idempotent.
    """

    # ------------------------------------------------------------ writes
    def put(self, key: bytes, value: bytes) -> None: ...

    def delete(self, key: bytes) -> None: ...

    def write(self, batch) -> None: ...

    # ------------------------------------------------------------- reads
    def get(
        self, key: bytes, snapshot=None, wait: bool = True
    ) -> Optional[bytes]: ...

    def multi_get(self, keys, snapshot=None) -> list[Optional[bytes]]: ...

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot=None,
    ) -> Iterator[tuple[bytes, bytes]]: ...

    def scan_reverse(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot=None,
    ) -> Iterator[tuple[bytes, bytes]]: ...

    # ------------------------------------------------------- maintenance
    def flush(self) -> None: ...

    def compact_range(self, start=None, end=None) -> int: ...

    def compact_all(self) -> int: ...

    def wait_for_compactions(self) -> None: ...

    # ------------------------------------------------------------- admin
    def write_stalled(self, keys=None) -> bool: ...

    def metrics_snapshot(self) -> dict: ...

    def num_files(self, level: int) -> int: ...

    def total_bytes(self) -> int: ...

    def get_property(self, name: str) -> Optional[str]: ...

    def describe(self) -> str: ...

    def close(self) -> None: ...
