"""``ShardedDB``: N independent LSM shards behind one DB-shaped facade.

The paper's parallel procedures scale *one* compaction pipeline over k
devices or k workers (Eqs. 4/6); this module applies the same argument
one level up.  The user keyspace is partitioned over N
:class:`repro.db.DB` shards — each with its own memtable, WAL, levels,
and compaction pipeline — so the aggregate write path scales with N
until a shared resource saturates.  The shared resource is made
explicit: one :class:`~repro.cluster.pool.SharedComputePool`
multiplexes every shard's pipelined-compaction compute stage (S2–S6)
over a bounded worker set instead of letting N shards spawn N × k
compute threads.

Facade contract: ``ShardedDB`` is duck-compatible with the ``DB``
surface the network server (:mod:`repro.server`), the bench harness,
and ``dbtool`` consume — ``put``/``get``/``delete``/``write``/
``multi_get``/``scan``/``scan_reverse``/``cursor``/``snapshot``/
``flush``/``compact_range``/``metrics_snapshot``/``close`` — so the whole stack
gains a cluster mode without forking code paths.

Consistency model (documented, not hidden):

* single-key operations have exactly the shard's semantics (atomic
  batch, read-your-writes);
* a :class:`WriteBatch` spanning shards is split into one atomic
  per-shard batch each — atomic per shard, not across shards;
* a :class:`ClusterSnapshot` pins one snapshot per shard.  Snapshots
  are acquired shard-by-shard (no cluster-wide freeze), so the view
  is per-shard consistent and cluster-wide *cut* consistent only in
  the absence of cross-shard ordering requirements — the same
  contract per-shard snapshots give in production sharded stores.

Layout is persisted in a ``CLUSTER`` manifest (shard count +
partitioner spec, CRC-protected, atomically swapped); reopen
re-validates it so a mis-configured reopen fails loudly instead of
misrouting keys.  See ``docs/CLUSTER.md``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional, Sequence

from ..core.procedures import ProcedureSpec
from ..db.db import DB, Snapshot, db_counts
from ..devices.vfs import Storage
from ..lsm.options import Options
from ..lsm.wal import WriteBatch
from ..obs import MetricsRegistry, Observability, merge_shard_snapshots
from .cursor import ClusterCursor
from .manifest import ClusterConfigError, ClusterManifest, shard_dir_name
from .partitioner import HashPartitioner, Partitioner
from .pool import SharedComputePool

__all__ = ["ClusterSnapshot", "ShardedDB"]


class ClusterSnapshot:
    """One pinned snapshot per shard; release via ``with`` or release()."""

    __slots__ = ("shard_snapshots", "_db", "_released")

    def __init__(self, shard_snapshots: list[Snapshot], db: "ShardedDB") -> None:
        self.shard_snapshots = shard_snapshots
        self._db = db
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            for snap in self.shard_snapshots:
                snap.release()

    def __enter__(self) -> "ClusterSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class ShardedDB:
    """A hash- or range-partitioned cluster of ``DB`` shards."""

    def __init__(
        self,
        root: Storage,
        shard_storages: Sequence[Storage],
        partitioner: Optional[Partitioner] = None,
        options: Optional[Options] = None,
        compaction_spec: Optional[ProcedureSpec] = None,
        background: bool = False,
        pool_workers: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        """Open (or create) a cluster over ``shard_storages``.

        ``root`` holds only the ``CLUSTER`` manifest.  On first open
        the layout (``len(shard_storages)`` shards, ``partitioner`` —
        default a seed-0 :class:`HashPartitioner`) is persisted; on
        reopen the persisted layout wins and any conflicting caller
        arguments raise :class:`ClusterConfigError`.

        ``pool_workers`` caps the shared compaction compute pool; the
        default is the spec's own ``compute_workers`` (C-PPCP's k), so
        a cluster runs *k total* compute workers where N independent
        DBs would run N × k.  ``obs`` is the cluster-level bundle: the
        pool records ``cluster.pool.*`` into its registry and every
        shard shares its tracer (one timeline), while each shard keeps
        a private metrics registry surfaced shard-dimensioned through
        :meth:`metrics_snapshot`.
        """
        if len(shard_storages) < 1:
            raise ValueError("need at least one shard storage")
        self.root = root
        self.obs = obs or Observability()

        if ClusterManifest.exists(root):
            self.manifest = ClusterManifest.load(root)
            if len(shard_storages) != self.manifest.n_shards:
                raise ClusterConfigError(
                    f"cluster manifest names {self.manifest.n_shards} "
                    f"shards; {len(shard_storages)} storages supplied"
                )
            persisted = self.manifest.partitioner()
            if partitioner is not None:
                self.manifest.validate_against(len(shard_storages), partitioner)
            self.partitioner = persisted
        else:
            self.partitioner = partitioner or HashPartitioner(
                len(shard_storages)
            )
            if self.partitioner.n_shards != len(shard_storages):
                raise ClusterConfigError(
                    f"partitioner covers {self.partitioner.n_shards} shards "
                    f"but {len(shard_storages)} storages supplied"
                )
            self.manifest = ClusterManifest(
                n_shards=len(shard_storages),
                partitioner_spec=self.partitioner.spec(),
            )
            self.manifest.save(root)

        self.options = options or Options()
        self.compaction_spec = compaction_spec or ProcedureSpec.scp()
        self.pool: Optional[SharedComputePool] = None
        if (
            self.compaction_spec.is_pipelined
            and self.compaction_spec.backend == "thread"
        ):
            self.pool = SharedComputePool(
                pool_workers or self.compaction_spec.compute_workers,
                metrics=self.obs.metrics,
            )

        self._background = background
        self._closed = False
        self.shards: list[DB] = []
        try:
            for storage in shard_storages:
                self.shards.append(
                    DB(
                        storage,
                        self.options,
                        compaction_spec=self.compaction_spec,
                        background=background,
                        obs=Observability(
                            metrics=MetricsRegistry(),
                            tracer=self.obs.tracer,
                        ),
                        compute_pool=self.pool,
                    )
                )
        except BaseException:
            for shard in self.shards:
                shard.close()
            if self.pool is not None:
                self.pool.shutdown(wait=False)
            raise

    # ----------------------------------------------------- constructors
    @classmethod
    def from_shards(
        cls,
        shards: Sequence,
        partitioner: Optional[Partitioner] = None,
        obs: Optional[Observability] = None,
    ):
        """Compose a cluster from already-open :class:`ShardLike` shards.

        Unlike the storage-based constructor this takes *any* mix of
        shard implementations — local :class:`repro.db.DB` instances,
        :class:`repro.replication.RemoteShard` connections to other
        processes, :class:`repro.replication.ReplicatedShard` replica
        sets — and only routes between them.  No CLUSTER manifest is
        written (the caller owns topology persistence), no shared
        compute pool is created (remote shards compact in their own
        process), and ``close()`` closes the supplied shards.

        Shards without ``cursor``/``snapshot`` support (the remote
        ones) degrade scans to a heap merge of per-shard scans and
        make :meth:`snapshot` raise ``NotImplementedError``.
        """
        if len(shards) < 1:
            raise ValueError("need at least one shard")
        self = cls.__new__(cls)
        self.root = None
        self.obs = obs or Observability()
        self.partitioner = partitioner or HashPartitioner(len(shards))
        if self.partitioner.n_shards != len(shards):
            raise ClusterConfigError(
                f"partitioner covers {self.partitioner.n_shards} shards "
                f"but {len(shards)} shards supplied"
            )
        self.manifest = None
        self.options = Options()
        self.compaction_spec = None
        self.pool = None
        self._background = False
        self._closed = False
        self.shards = list(shards)
        return self

    @classmethod
    def open_path(cls, path: str, n_shards: Optional[int] = None, **kwargs):
        """Open a cluster rooted at directory ``path``.

        Shard *i* lives in ``path/shard-<i>``.  ``n_shards`` is
        required on first open; on reopen it is read from the CLUSTER
        manifest (and validated when also passed).
        """
        import os

        from ..devices.vfs import OSStorage

        root = OSStorage(path)
        if ClusterManifest.exists(root):
            manifest = ClusterManifest.load(root)
            if n_shards is not None and n_shards != manifest.n_shards:
                raise ClusterConfigError(
                    f"cluster at {path!r} has {manifest.n_shards} shards; "
                    f"--shards {n_shards} requested"
                )
            n_shards = manifest.n_shards
        elif n_shards is None:
            raise ClusterConfigError(
                f"no CLUSTER manifest at {path!r}: pass n_shards to create"
            )
        shard_storages = [
            OSStorage(os.path.join(path, shard_dir_name(i)))
            for i in range(n_shards)
        ]
        return cls(root, shard_storages, **kwargs)

    @classmethod
    def in_memory(cls, n_shards: int, **kwargs):
        """A fresh all-in-memory cluster (tests, benchmarks, tracing)."""
        from ..devices.vfs import MemStorage

        return cls(
            MemStorage(), [MemStorage() for _ in range(n_shards)], **kwargs
        )

    # ---------------------------------------------------------- routing
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_for_key(self, key: bytes) -> int:
        """Shard index owning ``key`` (the router, exposed for tools)."""
        return self.partitioner.shard_of(key)

    def _shard(self, key: bytes) -> DB:
        return self.shards[self.partitioner.shard_of(key)]

    # ----------------------------------------------------------- writes
    def put(self, key: bytes, value: bytes) -> None:
        self._shard(key).put(key, value)

    def delete(self, key: bytes) -> None:
        self._shard(key).delete(key)

    def write(self, batch: WriteBatch) -> None:
        """Apply a batch, split into one atomic sub-batch per shard.

        Atomicity is per shard: a crash can persist the sub-batch of
        one shard and not another's (the cluster-level contract; see
        module docstring).  Op order within each shard is preserved.
        """
        if len(batch) == 0:
            return
        from ..lsm.ikey import KIND_VALUE

        per_shard: dict[int, WriteBatch] = {}
        for kind, key, value in batch:
            shard = self.partitioner.shard_of(key)
            sub = per_shard.get(shard)
            if sub is None:
                sub = per_shard[shard] = WriteBatch()
            if kind == KIND_VALUE:
                sub.put(key, value)
            else:
                sub.delete(key)
        for shard, sub in sorted(per_shard.items()):
            self.shards[shard].write(sub)

    # ------------------------------------------------------------ reads
    def _shard_snapshot(
        self, snapshot: Optional[ClusterSnapshot], shard: int
    ) -> Optional[Snapshot]:
        if snapshot is None:
            return None
        return snapshot.shard_snapshots[shard]

    def get(
        self,
        key: bytes,
        snapshot: Optional[ClusterSnapshot] = None,
        wait: bool = True,
    ) -> Optional[bytes]:
        """``wait=False`` is forwarded: the owning shard answers without
        waiting or raises :class:`repro.db.WouldBlock`."""
        shard = self.partitioner.shard_of(key)
        return self.shards[shard].get(
            key, snapshot=self._shard_snapshot(snapshot, shard), wait=wait
        )

    def multi_get(
        self, keys, snapshot: Optional[ClusterSnapshot] = None
    ) -> list[Optional[bytes]]:
        """Batched lookups, grouped into one batch per shard.

        Results come back in argument order; each shard is consulted
        exactly once with its slice of the keys.
        """
        keys = list(keys)
        results: list[Optional[bytes]] = [None] * len(keys)
        for shard, positions in self.partitioner.group_keys(keys).items():
            values = self.shards[shard].multi_get(
                [keys[p] for p in positions],
                snapshot=self._shard_snapshot(snapshot, shard),
            )
            for position, value in zip(positions, values):
                results[position] = value
        return results

    def snapshot(self) -> ClusterSnapshot:
        """Pin a snapshot on every shard (shard order, no global freeze)."""
        if not all(hasattr(shard, "snapshot") for shard in self.shards):
            raise NotImplementedError(
                "cluster contains remote shards, which cannot pin snapshots"
            )
        snaps: list[Snapshot] = []
        try:
            for shard in self.shards:
                snaps.append(shard.snapshot())
        except BaseException:
            for snap in snaps:
                snap.release()
            raise
        return ClusterSnapshot(snaps, self)

    def release_snapshot(self, snapshot: ClusterSnapshot) -> None:
        snapshot.release()

    def cursor(
        self, snapshot: Optional[ClusterSnapshot] = None
    ) -> ClusterCursor:
        """A k-way-merge cursor over per-shard snapshot-pinned cursors."""
        if not all(hasattr(shard, "cursor") for shard in self.shards):
            raise NotImplementedError(
                "cluster contains remote shards, which have no cursors; "
                "scan()/scan_reverse() heap-merge instead"
            )
        return ClusterCursor(
            [
                shard.cursor(snapshot=self._shard_snapshot(snapshot, i))
                for i, shard in enumerate(self.shards)
            ]
        )

    def _merged_scan(
        self,
        start: Optional[bytes],
        end: Optional[bytes],
        snapshot: Optional[ClusterSnapshot],
        reverse: bool,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Heap merge of per-shard scans (the cursorless fallback).

        Shards partition the keyspace, so per-shard streams never
        carry the same key and a plain key merge is the global order.
        """
        import heapq

        streams = [
            (
                shard.scan_reverse(start, end, snapshot=snapshot)
                if reverse
                else shard.scan(start, end, snapshot=snapshot)
            )
            for shard in self.shards
        ]
        return heapq.merge(*streams, key=lambda pair: pair[0], reverse=reverse)

    def scan(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot: Optional[ClusterSnapshot] = None,
        limit: Optional[int] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Globally ordered iteration over ``[start, end)`` across shards."""
        if all(hasattr(shard, "cursor") for shard in self.shards):
            items = self.cursor(snapshot).items(start, end)
        else:
            items = self._merged_scan(start, end, snapshot, reverse=False)
        return items if limit is None else islice(items, limit)

    def scan_reverse(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        snapshot: Optional[ClusterSnapshot] = None,
        limit: Optional[int] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """The ``[start, end)`` window in descending global key order."""
        if all(hasattr(shard, "cursor") for shard in self.shards):
            items = self.cursor(snapshot).items_reverse(start, end)
        else:
            items = self._merged_scan(start, end, snapshot, reverse=True)
        return items if limit is None else islice(items, limit)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return self.scan()

    # ------------------------------------------------------ maintenance
    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def compact_range(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> int:
        """Manually compact ``[start, end]`` on every shard; total count."""
        return sum(shard.compact_range(start, end) for shard in self.shards)

    def compact_all(self) -> int:
        """Synchronous-mode helper: drain every shard's compactions."""
        return sum(shard.compact_all() for shard in self.shards)

    def wait_for_compactions(self) -> None:
        for shard in self.shards:
            shard.wait_for_compactions()

    # --------------------------------------------------- stats & stalls
    def write_stalled(self, keys=None) -> bool:
        """Backpressure check, routed: with ``keys``, only the shards
        owning those keys count — a stalled shard must not reject
        writes bound for healthy shards."""
        if keys is None:
            return any(shard.write_stalled() for shard in self.shards)
        shard_ids = {self.partitioner.shard_of(key) for key in keys}
        return any(self.shards[s].write_stalled() for s in shard_ids)

    def stalled_shards(self) -> list[int]:
        """Indices of shards currently refusing writes."""
        return [
            i for i, shard in enumerate(self.shards) if shard.write_stalled()
        ]

    def shard_stats(self) -> list[dict]:
        """Per-shard operational summary (the STATS ``cluster.shards``
        payload and ``dbtool stats --shards``)."""
        out = []
        for i, shard in enumerate(self.shards):
            s = db_counts(shard.metrics_snapshot())
            out.append(
                {
                    "shard": i,
                    "writes": s["writes"],
                    "gets": s["gets"],
                    "flushes": s["flushes"],
                    "compactions": s["compactions"],
                    "write_stalls": s["write_stalls"],
                    "l0_files": shard.num_files(0),
                    "total_bytes": shard.total_bytes(),
                    "write_stalled_now": shard.write_stalled(),
                }
            )
        return out

    def metrics_snapshot(self) -> dict:
        """Cluster metrics with a shard dimension.

        Each shard's ``metrics_snapshot()`` (a remote shard's is its
        server's engine section) appears as ``cluster.shard<N>.<name>``,
        counters/gauges additionally roll up under their bare names,
        and the cluster's own registry (``cluster.pool.*``) rides
        along unprefixed.  See :func:`repro.obs.merge_shard_snapshots`.
        """
        return merge_shard_snapshots(
            self.obs.metrics.snapshot(),
            [shard.metrics_snapshot() for shard in self.shards],
        )

    def num_files(self, level: int) -> int:
        return sum(shard.num_files(level) for shard in self.shards)

    def total_bytes(self) -> int:
        return sum(shard.total_bytes() for shard in self.shards)

    @property
    def policy(self):
        """The shards' compaction policy (every shard opens with the
        same Options, so they agree); None for policy-less ShardLikes
        (e.g. pure RemoteShard mixes)."""
        for shard in self.shards:
            found = getattr(shard, "policy", None)
            if found is not None:
                return found
        return None

    def describe(self) -> str:
        return "\n".join(
            f"[shard {i}]\n{shard.describe()}"
            for i, shard in enumerate(self.shards)
        )

    def get_property(self, name: str) -> Optional[str]:
        """Cluster-aware subset of ``DB.get_property``.

        ``stats``/``sstables``/``total-bytes``/``num-files-at-level<N>``
        and ``quarantine`` aggregate across shards; ``metrics`` returns
        the shard-dimensioned merged snapshot; ``cluster`` describes
        the shard map.  Unknown names return None.
        """
        import json

        if self._closed:
            raise RuntimeError("ShardedDB is closed")
        if name == "cluster":
            policy = self.policy
            lines = [
                f"shards={self.n_shards} "
                f"partitioner={self.partitioner.spec()}"
                + (f" policy={policy.spec()}" if policy is not None else "")
            ]
            for entry in self.shard_stats():
                lines.append(
                    f"shard{entry['shard']}: writes={entry['writes']} "
                    f"l0={entry['l0_files']} bytes={entry['total_bytes']} "
                    f"stalled={entry['write_stalled_now']}"
                )
            return "\n".join(lines)
        if name == "metrics":
            return json.dumps(self.metrics_snapshot(), sort_keys=True)
        if name == "compaction-policy":
            policy = self.policy
            return policy.spec() if policy is not None else None
        if name == "sstables":
            return self.describe()
        if name == "total-bytes":
            return str(self.total_bytes())
        if name.startswith("num-files-at-level"):
            try:
                level = int(name[len("num-files-at-level"):])
            except ValueError:
                return None
            if not 0 <= level < self.options.num_levels:
                return None
            return str(self.num_files(level))
        if name == "stats":
            s = db_counts(self.metrics_snapshot())
            return (
                f"shards={self.n_shards} writes={s['writes']} "
                f"gets={s['gets']} flushes={s['flushes']} "
                f"compactions={s['compactions']} stalls={s['write_stalls']}"
            )
        if name == "quarantine":
            lines = []
            for i, shard in enumerate(self.shards):
                text = shard.get_property("quarantine")
                if text and text != "(none)":
                    lines += [f"shard{i}/{line}" for line in text.splitlines()]
            return "\n".join(lines) if lines else "(none)"
        return None

    # --------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close every shard, then the shared pool (idempotent).

        Best-effort: every shard gets a close attempt even if an
        earlier one fails; the first failure re-raises afterwards.
        """
        if self._closed:
            return
        self._closed = True
        first_error: Optional[BaseException] = None
        for shard in self.shards:
            try:
                shard.close()
            except BaseException as exc:  # repro: noqa[RA105]
                if first_error is None:
                    first_error = exc
        if self.pool is not None:
            self.pool.shutdown()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "ShardedDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
