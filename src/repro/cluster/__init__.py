"""``repro.cluster`` — a sharded LSM engine over ``repro.db``.

The subsystem in four pieces:

* :mod:`~repro.cluster.partitioner` — hash / range key→shard routing;
* :mod:`~repro.cluster.manifest` — the persisted, CRC-protected
  ``CLUSTER`` layout manifest (re-validated on reopen);
* :mod:`~repro.cluster.shard` — the :class:`ShardLike` contract every
  shard slot satisfies (local, remote or replicated);
* :mod:`~repro.cluster.sharded` — the DB-shaped :class:`ShardedDB`
  facade, whose scans heap-merge every shard's own scan.

Quick start::

    from repro.cluster import ShardedDB
    from repro.core.procedures import ProcedureSpec

    db = ShardedDB.in_memory(4, compaction_spec=ProcedureSpec.cppcp(2))
    db.put(b"k", b"v")
    list(db.scan())          # globally ordered across shards
    db.close()

See ``docs/CLUSTER.md`` for the design discussion.
"""

from .manifest import (
    CLUSTER_FILE,
    ClusterConfigError,
    ClusterManifest,
    shard_dir_name,
)
from .partitioner import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    partitioner_from_spec,
)
from .shard import ShardLike
from .sharded import ClusterSnapshot, ShardedDB

__all__ = [
    "CLUSTER_FILE",
    "ClusterConfigError",
    "ClusterManifest",
    "ClusterSnapshot",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "ShardLike",
    "ShardedDB",
    "partitioner_from_spec",
    "shard_dir_name",
]
