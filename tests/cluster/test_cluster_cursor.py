"""Cross-shard scan tests: global order, limits, tombstones, snapshots.

The merge is only correct if every global ordering property holds at
shard *boundaries* — exactly where a naive concatenation would break —
so the range-partitioned cases pick windows and limits that straddle
split keys on purpose.
"""

import random
import threading

import pytest

from repro.cluster import RangePartitioner, ShardedDB
from tests.helpers import small_options

SPLITS = [b"key250", b"key500", b"key750"]


def _fill(db, n=1000, prefix=b"key"):
    expected = {}
    for i in range(n):
        key = b"%s%03d" % (prefix, i)
        value = b"val%03d" % i
        db.put(key, value)
        expected[key] = value
    return expected


@pytest.fixture(params=["hash", "range"])
def cluster(request):
    if request.param == "hash":
        db = ShardedDB.in_memory(4, options=small_options())
    else:
        db = ShardedDB.in_memory(
            4,
            partitioner=RangePartitioner(SPLITS),
            options=small_options(),
        )
    yield db
    db.close()


class TestGlobalOrder:
    def test_forward_scan_strictly_ascending(self, cluster):
        expected = _fill(cluster)
        cluster.flush()
        pairs = list(cluster.scan())
        keys = [k for k, _ in pairs]
        assert keys == sorted(expected)
        assert dict(pairs) == expected

    def test_reverse_scan_strictly_descending(self, cluster):
        expected = _fill(cluster)
        pairs = list(cluster.scan_reverse())
        assert [k for k, _ in pairs] == sorted(expected, reverse=True)

    def test_range_window_straddling_shard_boundaries(self, cluster):
        _fill(cluster)
        # [key240, key760) covers parts of all four range shards.
        keys = [k for k, _ in cluster.scan(b"key240", b"key760")]
        assert keys == [b"key%03d" % i for i in range(240, 760)]
        rkeys = [k for k, _ in cluster.scan_reverse(b"key240", b"key760")]
        assert rkeys == list(reversed(keys))

    def test_interleaved_keys_across_shards(self, cluster):
        # Insert in shuffled order; the merge must still sort globally.
        order = list(range(1000))
        random.Random(3).shuffle(order)
        for i in order:
            cluster.put(b"key%03d" % i, b"v")
        keys = [k for k, _ in cluster.scan()]
        assert keys == [b"key%03d" % i for i in range(1000)]

    def test_cursor_count_and_iter(self, cluster):
        _fill(cluster, n=100)
        assert cluster.n_shards == 4
        assert sum(1 for _ in cluster.scan()) == 100
        assert len(list(iter(cluster.items()))) == 100
        assert [k for k, _ in cluster.scan(b"key090")] == [
            b"key%03d" % i for i in range(90, 100)
        ]


class TestLimit:
    def test_limit_lands_exactly_on_shard_boundary(self):
        db = ShardedDB.in_memory(
            4, partitioner=RangePartitioner(SPLITS), options=small_options()
        )
        try:
            _fill(db)
            # shard 0 holds key000..key249: limits at 249/250/251 cross
            # the first split.
            for limit in (249, 250, 251):
                keys = [k for k, _ in db.scan(limit=limit)]
                assert keys == [b"key%03d" % i for i in range(limit)]
            rkeys = [k for k, _ in db.scan_reverse(limit=251)]
            assert rkeys == [b"key%03d" % i for i in range(999, 748, -1)]
        finally:
            db.close()

    def test_limit_larger_than_data(self, cluster):
        _fill(cluster, n=10)
        assert len(list(cluster.scan(limit=100))) == 10

    def test_limit_zero(self, cluster):
        _fill(cluster, n=10)
        assert list(cluster.scan(limit=0)) == []


class TestTombstones:
    def test_deletes_masked_across_all_shards(self, cluster):
        expected = _fill(cluster)
        # Delete a stripe that hits every shard of either partitioner.
        for i in range(0, 1000, 3):
            cluster.delete(b"key%03d" % i)
            expected.pop(b"key%03d" % i)
        cluster.flush()
        assert dict(cluster.scan()) == expected
        assert dict(cluster.scan_reverse()) == expected

    def test_delete_then_rewrite_is_visible(self, cluster):
        _fill(cluster, n=50)
        cluster.delete(b"key025")
        cluster.put(b"key025", b"reborn")
        pairs = dict(cluster.scan())
        assert pairs[b"key025"] == b"reborn"
        assert len(pairs) == 50

    def test_tombstones_survive_flush_boundaries(self, cluster):
        _fill(cluster, n=200)
        cluster.flush()
        for i in range(100):
            cluster.delete(b"key%03d" % i)
        cluster.flush()  # tombstones now in different tables than data
        keys = [k for k, _ in cluster.scan()]
        assert keys == [b"key%03d" % i for i in range(100, 200)]


class TestSnapshotIsolation:
    def test_scan_pinned_while_other_shards_mutate(self, cluster):
        expected = _fill(cluster)
        with cluster.snapshot() as snap:
            # Mutate every shard after pinning.
            for i in range(0, 1000, 7):
                cluster.put(b"key%03d" % i, b"mutated")
            for i in range(1, 1000, 7):
                cluster.delete(b"key%03d" % i)
            cluster.put(b"zzz-new", b"new")
            assert dict(cluster.scan(snapshot=snap)) == expected
            assert dict(cluster.scan_reverse(snapshot=snap)) == expected
        # Without the snapshot the mutations are visible.
        live = dict(cluster.scan())
        assert live[b"key000"] == b"mutated"
        assert b"key001" not in live
        assert live[b"zzz-new"] == b"new"

    def test_snapshot_stable_under_concurrent_writers(self, cluster):
        expected = _fill(cluster, n=400)
        stop = threading.Event()
        errors = []

        def writer(seed):
            rnd = random.Random(seed)
            try:
                while not stop.is_set():
                    i = rnd.randrange(400)
                    if rnd.random() < 0.3:
                        cluster.delete(b"key%03d" % i)
                    else:
                        cluster.put(b"key%03d" % i, b"noise%d" % seed)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(
                target=writer, args=(s,), name=f"cursor-writer-{s}"
            )
            for s in range(3)
        ]
        with cluster.snapshot() as snap:
            for t in threads:
                t.start()
            try:
                # Repeated scans under load must all see the pinned view.
                for _ in range(5):
                    assert dict(cluster.scan(snapshot=snap)) == expected
                    assert dict(
                        cluster.scan_reverse(snapshot=snap)
                    ) == expected
            finally:
                stop.set()
                for t in threads:
                    t.join()
        assert not errors
