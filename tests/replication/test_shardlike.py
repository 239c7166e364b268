"""ShardLike protocol conformance.

``ShardedDB.from_shards`` accepts anything satisfying
:class:`repro.cluster.ShardLike`; this file pins the contract for all
three implementations — local :class:`DB`, the wire-level
:class:`RemoteShard`, and the failover-aware :class:`ReplicatedShard` —
and exercises a mixed local+remote cluster through the protocol.
"""

import inspect

import pytest

from repro.cluster import ShardLike, ShardedDB
from repro.db import DB, WouldBlock
from repro.devices import MemStorage
from repro.lsm import Options
from repro.replication import RemoteShard, ReplicatedShard
from repro.server.server import ServerThread

from tests.helpers import small_options

#: Every member ShardedDB actually calls on its shards.
_PROTOCOL_MEMBERS = [
    name for name in dir(ShardLike)
    if not name.startswith("_")
]


@pytest.fixture
def served_db():
    db = DB(MemStorage(), small_options())
    with ServerThread(db) as handle:
        yield handle


def _total_requests(handle) -> int:
    """Requests the server behind ``handle`` has answered, every opcode."""
    counters = handle.metrics.snapshot()["counters"]
    return sum(
        n for name, n in counters.items()
        if name.startswith("server.op.") and name.endswith(".requests")
    )


def _assert_conforms(shard) -> None:
    assert isinstance(shard, ShardLike)
    for name in _PROTOCOL_MEMBERS:
        assert hasattr(shard, name), f"missing member {name!r}"


def test_protocol_members_are_nonempty():
    # Guard against the Protocol silently degenerating to object().
    for expected in ("put", "get", "scan", "write_stalled", "metrics_snapshot"):
        assert expected in _PROTOCOL_MEMBERS


def test_local_db_conforms():
    db = DB(MemStorage(), Options())
    try:
        _assert_conforms(db)
    finally:
        db.close()


def test_remote_shard_conforms(served_db):
    shard = RemoteShard(served_db.host, served_db.port)
    try:
        _assert_conforms(shard)
    finally:
        shard.close()


def test_replicated_shard_conforms(served_db):
    shard = ReplicatedShard([(served_db.host, served_db.port)], ack_level=0)
    try:
        _assert_conforms(shard)
    finally:
        shard.close()


def test_remote_shard_signature_compatible_with_db():
    """RemoteShard methods must accept the call shapes DB accepts."""
    for name in _PROTOCOL_MEMBERS:
        db_attr = getattr(DB, name, None)
        remote_attr = getattr(RemoteShard, name, None)
        if not callable(db_attr) or not callable(remote_attr):
            continue
        db_params = list(inspect.signature(db_attr).parameters)
        remote_params = list(inspect.signature(remote_attr).parameters)
        missing = [
            p for p in db_params
            if p not in remote_params and p not in ("self", "kwargs")
        ]
        assert not missing, f"{name} lacks params {missing}"


def test_network_shards_refuse_a_non_waiting_get_at_once(served_db):
    """A shard that answers over the network cannot answer without
    waiting, and must say so before touching the socket."""
    remote = RemoteShard(served_db.host, served_db.port)
    replicated = ReplicatedShard(
        [(served_db.host, served_db.port)], ack_level=0
    )
    try:
        remote.put(b"k", b"v")
        requests = _total_requests(served_db)
        for shard in (remote, replicated):
            with pytest.raises(WouldBlock):
                shard.get(b"k", wait=False)
        assert _total_requests(served_db) == requests
        assert remote.get(b"k") == b"v"
    finally:
        remote.close()
        replicated.close()


def test_mixed_cluster_from_shards(served_db, tmp_path):
    local = DB(MemStorage(), small_options())
    remote = RemoteShard(served_db.host, served_db.port)
    cluster = ShardedDB.from_shards([local, remote])
    try:
        for i in range(60):
            cluster.put(f"key{i:03d}".encode(), f"val{i:03d}".encode())
        for i in range(60):
            assert cluster.get(f"key{i:03d}".encode()) == f"val{i:03d}".encode()

        # Both shards actually received data (hash routing split it).
        assert local.obs.metrics.counter("db.writes").value > 0

        got = [k for k, _ in cluster.scan()]
        assert got == sorted(f"key{i:03d}".encode() for i in range(60))
        rev = [k for k, _ in cluster.scan_reverse()]
        assert rev == got[::-1]

        values = cluster.multi_get([b"key000", b"key059", b"missing"])
        assert values == [b"val000", b"val059", None]

        # Point-in-time snapshots need every shard to support them;
        # RemoteShard cannot, so the cluster must refuse loudly.
        with pytest.raises(NotImplementedError):
            cluster.snapshot()

        counters = cluster.metrics_snapshot()["counters"]
        assert counters["db.writes"] >= 60
    finally:
        cluster.close()


def test_from_shards_partitioner_mismatch():
    from repro.cluster import ClusterConfigError, HashPartitioner

    a, b = DB(MemStorage(), Options()), DB(MemStorage(), Options())
    with pytest.raises(ClusterConfigError):
        ShardedDB.from_shards([a, b], partitioner=HashPartitioner(3))
    a.close()
    b.close()


@pytest.mark.parametrize("kind", ["remote", "replicated"])
def test_network_shards_roll_up_their_engines_counters(kind):
    """A cluster over network shards reports the remote engines' counts:
    its rolled-up ``wal.records`` and ``db.flushes`` are the sums over
    the servers, not the (empty) registries of the shards' clients."""
    handles = [
        ServerThread(DB(MemStorage(), Options(memtable_bytes=4096))).start()
        for _ in range(2)
    ]
    if kind == "remote":
        shards = [RemoteShard(h.host, h.port) for h in handles]
    else:
        shards = [ReplicatedShard([(h.host, h.port)], ack_level=0) for h in handles]
    cluster = ShardedDB.from_shards(shards)
    try:
        for i in range(300):
            cluster.put(b"key%04d" % i, b"value%04d" % i * 4)
        counters = cluster.metrics_snapshot()["counters"]
        for name in ("wal.records", "db.flushes"):
            served = [h.server.db.obs.metrics.counter(name).value for h in handles]
            assert all(served), (name, served)
            assert counters[name] == sum(served), name
    finally:
        cluster.close()
        for handle in handles:
            handle.stop()
