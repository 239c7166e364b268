"""Cluster-mode server tests: the PR's loopback acceptance gate.

A real 4-shard :class:`repro.cluster.ShardedDB` behind a real server
on an ephemeral port: concurrent clients, wire-compatible opcodes,
shard-aware STALLED routing, cluster STATS, and — after graceful
shutdown — every shard directory passes ``verify_db`` and a
cross-shard SCAN equals a plain single DB loaded with the same data.
"""

import threading

import pytest

from repro.cluster import RangePartitioner, ShardedDB
from repro.db import DB
from repro.db.verify import verify_db
from repro.devices import MemStorage, OSStorage
from repro.lsm import Options
from repro.server import ServerBusyError, ServerThread, SyncClient
from repro.server import protocol as P
from repro.cluster.manifest import shard_dir_name

SMALL = dict(
    memtable_bytes=8 * 1024,
    sstable_bytes=8 * 1024,
    level1_bytes=32 * 1024,
    level_multiplier=4,
)


@pytest.fixture()
def cluster_server():
    db = ShardedDB.in_memory(4, options=Options(**SMALL), background=True)
    handle = ServerThread(db).start()
    yield handle
    handle.stop()


@pytest.fixture()
def client(cluster_server):
    with SyncClient(cluster_server.host, cluster_server.port) as c:
        yield c


class TestWireCompatibility:
    """Every opcode a single-DB client uses works unchanged."""

    def test_put_get_delete(self, client):
        client.put(b"k", b"v")
        assert client.get(b"k") == b"v"
        client.delete(b"k")
        assert client.get(b"k") is None

    def test_batch_spans_shards(self, client):
        ops = [("put", b"bk%03d" % i, b"bv%03d" % i) for i in range(40)]
        assert client.batch(ops) == 40
        for i in range(40):
            assert client.get(b"bk%03d" % i) == b"bv%03d" % i

    def test_scan_globally_ordered(self, client):
        for i in range(60):
            client.put(b"sk%03d" % i, b"sv")
        pairs, truncated = client.scan()
        assert not truncated
        assert [k for k, _ in pairs] == [b"sk%03d" % i for i in range(60)]
        rpairs, _ = client.scan(reverse=True)
        assert [k for k, _ in rpairs] == [
            b"sk%03d" % i for i in range(59, -1, -1)
        ]
        window, _ = client.scan(b"sk010", b"sk020", limit=5)
        assert [k for k, _ in window] == [
            b"sk%03d" % i for i in range(10, 15)
        ]

    def test_compact_opcode(self, client):
        for i in range(200):
            client.put(b"ck%04d" % i, b"x" * 50)
        assert client.compact() >= 0

    def test_truncated_batch_count_is_a_bad_request(self, client):
        # The shard-aware stall check peeks the keys out of the body.
        response = client._exchange(P.OP_BATCH, b"\xff", ())
        assert response.status == P.ST_BAD_REQUEST
        assert client.ping(b"next") == b"next"

    def test_stats_has_cluster_section(self, client):
        client.put(b"stat-key", b"1")
        stats = client.stats()
        assert stats["cluster"]["n_shards"] == 4
        assert stats["cluster"]["stalled_shards"] == []
        shards = stats["cluster"]["shards"]
        assert [s["shard"] for s in shards] == [0, 1, 2, 3]
        assert sum(s["writes"] for s in shards) == stats["db"]["writes"]
        # Shard-dimensioned engine metrics with rollups.
        counters = stats["engine"]["counters"]
        assert any(k.startswith("cluster.shard") for k in counters)


class TestShardAwareStall:
    def test_stall_rejects_only_stalled_shards_keys(self):
        db = ShardedDB.in_memory(
            3,
            partitioner=RangePartitioner([b"h", b"p"]),
            options=Options(**SMALL),
            background=True,
        )
        handle = ServerThread(db).start()
        try:
            # Shard 1 owns [h, p): force it to report a write stall.
            db.shards[1].policy.write_stall = lambda version: True
            with SyncClient(
                handle.host, handle.port, max_retries=0
            ) as c:
                c.put(b"aaa", b"healthy")          # shard 0: fine
                c.put(b"zzz", b"healthy")          # shard 2: fine
                with pytest.raises(ServerBusyError):
                    c.put(b"mmm", b"stalled")      # shard 1: rejected
                with pytest.raises(ServerBusyError):
                    c.batch([("put", b"aab", b"1"), ("put", b"mmn", b"2")])
                # Reads to the stalled shard still work.
                assert c.get(b"mmm") is None
                assert c.stats()["cluster"]["stalled_shards"] == [1]
        finally:
            db.shards[1].policy.write_stall = (
                type(db.shards[1].policy).write_stall.__get__(
                    db.shards[1].policy
                )
            )
            handle.stop()


class TestLoopbackIntegration:
    N_SHARDS = 4
    N_CLIENTS = 4
    OPS_PER_CLIENT = 400

    def test_concurrent_clients_then_verify_every_shard(self, tmp_path):
        path = str(tmp_path / "cluster")
        db = ShardedDB.open_path(
            path,
            n_shards=self.N_SHARDS,
            options=Options(**SMALL),
            background=True,
        )
        handle = ServerThread(db).start()
        written = {}
        lock = threading.Lock()
        errors = []

        def worker(wid):
            local = {}
            try:
                with SyncClient(handle.host, handle.port) as c:
                    for i in range(self.OPS_PER_CLIENT):
                        k = b"w%d-%04d" % (wid, i)
                        v = b"value-%d-%d" % (wid, i)
                        c.put(k, v)
                        local[k] = v
                    # Read-your-writes through the cluster.
                    assert c.get(b"w%d-0000" % wid) is not None
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                return
            with lock:
                written.update(local)

        threads = [
            threading.Thread(
                target=worker, args=(w,), name=f"cluster-client-{w}"
            )
            for w in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(written) == self.N_CLIENTS * self.OPS_PER_CLIENT

        with SyncClient(handle.host, handle.port) as c:
            pairs, truncated = c.scan()
            assert not truncated
            scanned = dict(pairs)

        handle.stop()  # graceful: drains, flushes, closes every shard

        # Gate 1: every shard directory independently passes verify_db.
        for i in range(self.N_SHARDS):
            storage = OSStorage(f"{path}/{shard_dir_name(i)}")
            report = verify_db(storage, Options(**SMALL))
            assert report.ok, f"shard {i}:\n{report.render()}"

        # Gate 2: the cross-shard SCAN result equals a plain single
        # DB loaded with the same data.
        reference = DB(MemStorage(), Options(**SMALL))
        try:
            for k, v in written.items():
                reference.put(k, v)
            assert scanned == dict(reference.scan())
            assert sorted(scanned) == [k for k, _ in reference.scan()]
        finally:
            reference.close()

        # Gate 3: reopening the cluster serves everything back.
        reopened = ShardedDB.open_path(path, options=Options(**SMALL))
        try:
            for k, v in list(written.items())[::37]:
                assert reopened.get(k) == v
        finally:
            reopened.close()
