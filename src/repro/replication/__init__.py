"""Replication: remote shards and primary/follower log shipping.

This package turns the single-process engine into the substrate of a
fault-tolerant cluster, the ROADMAP's top open item.  Three layers:

``remote``      :class:`RemoteShard` — the ShardLike interface spoken
                over the PR 1 wire protocol, so
                :meth:`repro.cluster.ShardedDB.from_shards` composes
                local and remote shards transparently
``hub``         :class:`ReplicationHub` — primary-side log shipping:
                WAL-listener ingestion, per-subscriber positions,
                retained-WAL replay, snapshot decisions, ack counting,
                lag-based write admission
``follower``    :class:`Follower` — subscriber thread that replays
                shipped records into a local DB (sync-before-ack) and
                installs full SST snapshots when too far behind
``replicated``  :class:`ReplicatedShard` — client-side policy: writes
                to the primary at a configurable ack level, reads
                primary-first with stale follower fallback, epoch-led
                failover after ``dbtool promote``
``failover``    :class:`FailoverCoordinator` — automatic failover:
                heartbeat probing, deterministic most-caught-up
                election (:func:`elect_candidate`), wire-level PROMOTE
                through the epoch-fencing path

The durable unit shipped between replicas is the engine's own encoded
:class:`repro.lsm.wal.WriteBatch` record — the same bytes the WAL
fsyncs, CRC-framed by the wire protocol, applied idempotently by
sequence number on the follower.
"""

from .errors import FencedError, ReplicationError
from .failover import FailoverCoordinator, elect_candidate
from .follower import Follower
from .hub import ReplicationHub, Subscriber
from .remote import RemoteShard
from .replicated import ReplicatedShard

__all__ = [
    "FailoverCoordinator",
    "FencedError",
    "Follower",
    "RemoteShard",
    "ReplicatedShard",
    "ReplicationError",
    "ReplicationHub",
    "Subscriber",
    "elect_candidate",
]
