"""Cluster crash consistency: power-cut ONE shard, recover only it.

Shards are independent failure domains: each owns its WAL, manifest,
and tables.  These tests arm a :class:`FaultPlan` crash point on shard
0's storage only, drive an interleaved acked workload across shards
until the simulated power cut fires, then reopen the cluster from
shard 0's frozen disk image.  The contract: no acknowledged write is
lost anywhere, recovery work (WAL replay) happens on the crashed
shard alone, and the healthy shard — flushed and closed gracefully —
reopens with nothing to replay.
"""

import random

import pytest

from repro.cluster import RangePartitioner, ShardedDB
from repro.db.verify import verify_db
from repro.devices import MemStorage
from repro.devices.faults import FaultPlan, FaultyStorage, SimulatedCrash
from repro.lsm import Options

#: (crash point, occurrences to skip before firing, whether reopen must
#: replay WAL records).  The skips land the cut mid-workload with a
#: part-filled memtable; ``flush.installed`` fires *after* the new
#: empty WAL is committed, so its recovery legitimately replays nothing
#: — the acked writes are already in the installed table.
SHARD_CRASH_POINTS = [
    ("wal.append", 40, True),
    ("wal.sync", 40, True),
    ("flush.table_written", 0, True),
    ("flush.installed", 0, False),
]

#: shard 0 owns keys < ``m``; shard 1 owns the rest.
PARTITIONER = RangePartitioner([b"m"])


def crash_options(**kw):
    defaults = dict(
        memtable_bytes=4096,
        sstable_bytes=4096,
        block_bytes=1024,
        level1_bytes=16384,
        level_multiplier=4,
        l0_compaction_trigger=2,
    )
    defaults.update(kw)
    return Options(**defaults)


def _open_cluster(root, shard_storages):
    return ShardedDB(
        root,
        shard_storages,
        partitioner=PARTITIONER,
        options=crash_options(wal_sync_interval=1),
    )


def run_until_shard_crash(point, seed=0, baseline=60, workload=500,
                          crash_skip=0):
    """Two-phase harness, cluster edition.

    Returns ``(acked, root, frozen_shard0, healthy_shard1, crashed)``.
    """
    root = MemStorage()
    storages = [
        FaultyStorage(MemStorage(), FaultPlan()),
        FaultyStorage(MemStorage(), FaultPlan()),
    ]
    acked = {}

    db = _open_cluster(root, storages)
    for i in range(baseline):
        for k in (b"a-base-%04d" % i, b"z-base-%04d" % i):
            db.put(k, b"b-%d" % i)
            acked[k] = b"b-%d" % i
    db.close()

    # Arm ONLY shard 0; shard 1 keeps running unharmed.
    storages[0].arm(
        FaultPlan(seed=seed, crash_at=point, crash_skip=crash_skip)
    )
    crashed = False
    db = _open_cluster(root, storages)
    try:
        order = list(range(workload))
        random.Random(seed).shuffle(order)
        for i in order:
            # Interleave both shards so the cut lands mid-traffic.
            for k in (b"a-%04d" % i, b"z-%04d" % i):
                v = b"v-%d-%d" % (seed, i)
                db.put(k, v)
                acked[k] = v
        db.flush()
        db.close()
    except SimulatedCrash:
        crashed = True
        # The cut hit shard 0 only; shard 1 shuts down gracefully, so
        # its memtable reaches tables and its WAL is retired.
        db.shards[1].flush()
        db.shards[1].close()

    return acked, root, storages[0].frozen_storage(), storages[1], crashed


class TestShardCrashMatrix:
    @pytest.mark.parametrize("point,skip,expect_replay", SHARD_CRASH_POINTS)
    def test_no_acked_write_lost_cluster_wide(self, point, skip,
                                              expect_replay):
        acked, root, frozen0, healthy1, crashed = run_until_shard_crash(
            point, crash_skip=skip
        )
        assert crashed, f"workload never reached crash point {point}"

        db = _open_cluster(root, [frozen0, healthy1])
        try:
            for k, v in acked.items():
                assert db.get(k) == v, f"{point}: lost acked write {k!r}"
            # Recovery ran on the crashed shard only: shard 0 replayed
            # WAL records; shard 1 closed cleanly and has none.
            replayed0 = db.shards[0].obs.metrics.counter(
                "recovery.wal_records"
            ).value
            replayed1 = db.shards[1].obs.metrics.counter(
                "recovery.wal_records"
            ).value
            if expect_replay:
                assert replayed0 > 0, (
                    f"{point}: crashed shard replayed nothing"
                )
            assert replayed1 == 0, (
                f"{point}: healthy shard unexpectedly replayed "
                f"{replayed1} records"
            )
        finally:
            db.close()

    @pytest.mark.parametrize("point,skip,expect_replay", SHARD_CRASH_POINTS)
    def test_both_shard_images_verify_clean(self, point, skip,
                                            expect_replay):
        _, root, frozen0, healthy1, crashed = run_until_shard_crash(
            point, seed=3, crash_skip=skip
        )
        assert crashed
        db = _open_cluster(root, [frozen0, healthy1])
        db.close()
        assert verify_db(frozen0, crash_options()).ok
        assert verify_db(healthy1, crash_options()).ok

    def test_scan_after_recovery_is_globally_ordered(self):
        acked, root, frozen0, healthy1, crashed = run_until_shard_crash(
            "flush.installed", seed=5
        )
        assert crashed
        db = _open_cluster(root, [frozen0, healthy1])
        try:
            pairs = list(db.scan())
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            # acked ⟹ present.  The one in-flight write whose put never
            # returned may ALSO survive (it reached the WAL before the
            # cut) — allowed, so assert superset not equality.
            recovered = dict(pairs)
            for k, v in acked.items():
                assert recovered[k] == v
            assert len(recovered) <= len(acked) + 1
        finally:
            db.close()

    def test_healthy_shard_serves_during_peer_outage(self):
        """A crashed shard does not take the cluster's other shards
        down: the still-open shard 1 keeps serving its keyspace."""
        _, root, frozen0, healthy1, crashed = run_until_shard_crash(
            "wal.sync", seed=7
        )
        assert crashed
        # Reopen ONLY shard 1 as a plain single DB (its directory is a
        # complete, self-contained store).
        from repro.db import DB

        solo = DB(healthy1, crash_options())
        try:
            solo.put(b"z-post-outage", b"still-serving")
            assert solo.get(b"z-post-outage") == b"still-serving"
        finally:
            solo.close()
