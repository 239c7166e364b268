"""ShardedDB facade tests: routing, persistence, pool, aggregation."""

import pytest

from repro.cluster import (
    ClusterConfigError,
    HashPartitioner,
    RangePartitioner,
    ShardedDB,
)
from repro.core.procedures import ProcedureSpec
from repro.db import WouldBlock
from repro.lsm.wal import WriteBatch
from tests.helpers import small_options


@pytest.fixture
def cluster():
    db = ShardedDB.in_memory(4, options=small_options())
    yield db
    db.close()


class TestRouting:
    def test_put_get_delete_round_trip(self, cluster):
        for i in range(300):
            cluster.put(b"key%04d" % i, b"value%04d" % i)
        assert cluster.get(b"key0123") == b"value0123"
        cluster.delete(b"key0123")
        assert cluster.get(b"key0123") is None
        assert cluster.get(b"never-written") is None

    def test_get_forwards_wait_to_the_owning_shard(self, cluster):
        for i in range(300):
            cluster.put(b"key%04d" % i, b"v%04d" % i)
        assert cluster.get(b"key0007", wait=False) == b"v0007"
        cluster.flush()
        with pytest.raises(WouldBlock):  # the shard's new table is not open
            cluster.get(b"key0007", wait=False)
        assert cluster.get(b"key0007") == b"v0007"
        assert cluster.get(b"key0007", wait=False) == b"v0007"

    def test_keys_land_on_partitioner_shard(self, cluster):
        for i in range(100):
            key = b"key%04d" % i
            cluster.put(key, b"v")
            shard = cluster.shard_for_key(key)
            assert cluster.shards[shard].get(key) == b"v"
            for j, other in enumerate(cluster.shards):
                if j != shard:
                    assert other.get(key) is None

    def test_every_shard_receives_some_keys(self, cluster):
        for i in range(400):
            cluster.put(b"key%04d" % i, b"v")
        assert all(
            shard.obs.metrics.counter("db.writes").value > 0
            for shard in cluster.shards
        )

    def test_batch_split_per_shard(self, cluster):
        cluster.put(b"stale", b"old")
        # Count engine-level write() calls per shard.
        calls = {i: 0 for i in range(cluster.n_shards)}
        for i, shard in enumerate(cluster.shards):
            original = shard.write

            def counted(b, _i=i, _orig=original):
                calls[_i] += 1
                return _orig(b)

            shard.write = counted
        batch = WriteBatch()
        for i in range(50):
            batch.put(b"batch%03d" % i, b"bv%03d" % i)
        batch.delete(b"stale")
        cluster.write(batch)
        for i in range(50):
            assert cluster.get(b"batch%03d" % i) == b"bv%03d" % i
        assert cluster.get(b"stale") is None
        # One engine batch per touched shard, not one per op.
        touched = {
            cluster.shard_for_key(b"batch%03d" % i) for i in range(50)
        } | {cluster.shard_for_key(b"stale")}
        assert calls == {
            i: (1 if i in touched else 0) for i in range(cluster.n_shards)
        }

    def test_empty_batch_is_noop(self, cluster):
        cluster.write(WriteBatch())
        assert not any(
            s.obs.metrics.counter("db.writes").value for s in cluster.shards
        )

    def test_multi_get_order_preserved(self, cluster):
        for i in range(64):
            cluster.put(b"mg%02d" % i, b"val%02d" % i)
        keys = [b"mg%02d" % i for i in (63, 0, 17, 4)] + [b"absent"]
        assert cluster.multi_get(keys) == [
            b"val63", b"val00", b"val17", b"val04", None,
        ]
        assert cluster.multi_get([]) == []


class TestSnapshots:
    def test_cluster_snapshot_pins_all_shards(self, cluster):
        for i in range(40):
            cluster.put(b"snap%02d" % i, b"before")
        with cluster.snapshot() as snap:
            for i in range(40):
                cluster.put(b"snap%02d" % i, b"after")
            cluster.put(b"snap-new", b"x")
            assert cluster.get(b"snap07", snapshot=snap) == b"before"
            assert cluster.get(b"snap-new", snapshot=snap) is None
            assert cluster.multi_get(
                [b"snap00", b"snap39"], snapshot=snap
            ) == [b"before", b"before"]
        assert cluster.get(b"snap07") == b"after"

    def test_release_is_idempotent(self, cluster):
        snap = cluster.snapshot()
        cluster.release_snapshot(snap)
        snap.release()


class TestPersistence:
    def test_reopen_preserves_layout_and_data(self, tmp_path):
        path = str(tmp_path / "cluster")
        db = ShardedDB.open_path(
            path, n_shards=3, partitioner=HashPartitioner(3, seed=11),
            options=small_options(),
        )
        for i in range(200):
            db.put(b"persist%03d" % i, b"pv%03d" % i)
        db.flush()
        db.close()

        reopened = ShardedDB.open_path(path, options=small_options())
        try:
            assert reopened.n_shards == 3
            assert reopened.partitioner == HashPartitioner(3, seed=11)
            for i in range(200):
                assert reopened.get(b"persist%03d" % i) == b"pv%03d" % i
        finally:
            reopened.close()

    def test_reopen_with_wrong_shard_count_fails(self, tmp_path):
        path = str(tmp_path / "cluster")
        ShardedDB.open_path(path, n_shards=2, options=small_options()).close()
        with pytest.raises(ClusterConfigError, match="2 shards"):
            ShardedDB.open_path(path, n_shards=4)

    def test_reopen_with_wrong_partitioner_fails(self, tmp_path):
        path = str(tmp_path / "cluster")
        ShardedDB.open_path(path, n_shards=2, options=small_options()).close()
        with pytest.raises(ClusterConfigError, match="partitioner mismatch"):
            ShardedDB.open_path(
                path, n_shards=2, partitioner=HashPartitioner(2, seed=3)
            )

    def test_open_path_without_manifest_needs_n_shards(self, tmp_path):
        with pytest.raises(ClusterConfigError, match="pass n_shards"):
            ShardedDB.open_path(str(tmp_path / "fresh"))

    def test_partitioner_shard_count_must_match_storages(self):
        from repro.devices import MemStorage

        with pytest.raises(ClusterConfigError, match="covers 3 shards"):
            ShardedDB(
                MemStorage(),
                [MemStorage(), MemStorage()],
                partitioner=HashPartitioner(3),
            )


class TestSharedPool:
    def test_pipelined_spec_creates_capped_pool(self):
        db = ShardedDB.in_memory(
            4,
            options=small_options(),
            compaction_spec=ProcedureSpec.cppcp(2, subtask_bytes=4096),
        )
        try:
            assert db.pool is not None
            assert db.pool.workers == 2
            import random

            # Random key order: overlapping L0 runs force real merge
            # compactions (sequential keys would all trivial-move).
            rnd = random.Random(7)
            for _ in range(5000):
                db.put(b"pool%09d" % rnd.randrange(10**9),
                       bytes(rnd.randrange(256) for _ in range(4)) * 32)
            db.flush()
            db.compact_all()
            snap = db.metrics_snapshot()
            assert snap["counters"].get("cluster.pool.tasks", 0) > 0
            assert snap["gauges"]["cluster.pool.max_active"] <= 2
        finally:
            db.close()

    def test_pool_workers_override(self):
        db = ShardedDB.in_memory(
            2,
            options=small_options(),
            compaction_spec=ProcedureSpec.cppcp(4),
            pool_workers=1,
        )
        try:
            assert db.pool.workers == 1
        finally:
            db.close()

    def test_scp_spec_has_no_pool(self, cluster):
        assert cluster.pool is None


class TestAggregation:
    def test_stats_sum_over_shards(self, cluster):
        for i in range(120):
            cluster.put(b"agg%03d" % i, b"v")
        cluster.flush()
        total = cluster.metrics_snapshot()["counters"]
        assert total["db.writes"] == 120
        for name in ("db.writes", "db.flushes"):
            assert total[name] == sum(
                s.obs.metrics.counter(name).value for s in cluster.shards
            )
        assert cluster.num_files(0) == sum(
            s.num_files(0) for s in cluster.shards
        )
        assert cluster.total_bytes() == sum(
            s.total_bytes() for s in cluster.shards
        )

    def test_shard_stats_shape(self, cluster):
        cluster.put(b"x", b"y")
        entries = cluster.shard_stats()
        assert [e["shard"] for e in entries] == [0, 1, 2, 3]
        assert sum(e["writes"] for e in entries) == 1
        assert all("write_stalled_now" in e for e in entries)

    def test_metrics_snapshot_has_shard_dimension(self, cluster):
        for i in range(200):
            cluster.put(b"met%03d" % i, b"v" * 32)
        cluster.flush()
        snap = cluster.metrics_snapshot()
        shard_keys = [
            k for k in snap["counters"] if k.startswith("cluster.shard")
        ]
        assert shard_keys, snap["counters"].keys()
        # Rollup: the bare name equals the sum of the per-shard values.
        name = shard_keys[0].split(".", 2)[2]
        rollup = sum(
            v
            for k, v in snap["counters"].items()
            if k.startswith("cluster.shard") and k.endswith("." + name)
        )
        assert snap["counters"][name] == rollup

    def test_get_property(self, cluster):
        cluster.put(b"p", b"q")
        cluster.flush()
        assert "shards=4" in cluster.get_property("cluster")
        assert cluster.get_property("total-bytes") == str(
            cluster.total_bytes()
        )
        assert cluster.get_property("num-files-at-level0") == str(
            cluster.num_files(0)
        )
        assert cluster.get_property("num-files-at-level999") is None
        assert cluster.get_property("no-such-property") is None
        assert cluster.get_property("quarantine") == "(none)"
        assert "writes=1" in cluster.get_property("stats")

    def test_describe_names_every_shard(self, cluster):
        text = cluster.describe()
        for i in range(4):
            assert f"[shard {i}]" in text


class TestStallRouting:
    def test_write_stalled_routes_by_key(self):
        db = ShardedDB.in_memory(
            3,
            partitioner=RangePartitioner([b"h", b"p"]),
            options=small_options(),
        )
        try:
            assert db.write_stalled() is False
            assert db.stalled_shards() == []
            # Force shard 1 (keys in [h, p)) to report a stall.
            db.shards[1].policy.write_stall = lambda version: True
            assert db.stalled_shards() == [1]
            assert db.write_stalled() is True
            assert db.write_stalled(keys=[b"aaa"]) is False
            assert db.write_stalled(keys=[b"mmm"]) is True
            assert db.write_stalled(keys=[b"zzz"]) is False
            assert db.write_stalled(keys=[b"aaa", b"mmm"]) is True
        finally:
            db.close()


class TestLifecycle:
    def test_close_idempotent_and_rejects_use(self, cluster):
        cluster.put(b"k", b"v")
        cluster.close()
        cluster.close()
        with pytest.raises(RuntimeError):
            cluster.put(b"k2", b"v2")

    def test_context_manager(self):
        with ShardedDB.in_memory(2, options=small_options()) as db:
            db.put(b"cm", b"1")
            assert db.get(b"cm") == b"1"

    def test_server_duck_surface(self, cluster):
        # The attributes KVServer relies on for cluster mode.
        assert cluster._background is False
        assert cluster._closed is False
        assert callable(cluster.write_stalled)
        assert callable(cluster.shard_stats)
        assert callable(cluster.metrics_snapshot)
        assert callable(cluster.wait_for_compactions)
