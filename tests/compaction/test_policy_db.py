"""DB- and cluster-level behaviour of compaction policies: persistence
in the manifest, reopen adoption, mismatch errors, stalls on run count,
properties, repair, and the dbtool surface over tiered layouts."""

import random

import pytest

from repro.cluster import ShardedDB
from repro.compaction import PolicyMismatchError
from repro.db import DB
from repro.db.verify import repair_db, verify_db
from repro.devices import MemStorage, OSStorage
from repro.lsm import Options
from repro.tools.dbtool import main as dbtool_main

POLICIES = ["leveled", "tiered:runs=2", "lazy-leveled:runs=2"]


def tiny_options(**kw):
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


def fill(db, n=400, seed=0):
    """Shuffled overwrite-heavy workload so compactions actually merge."""
    expected = {}
    order = list(range(n)) * 2
    random.Random(seed).shuffle(order)
    for i, key_id in enumerate(order):
        k = b"key-%04d" % key_id
        v = b"v-%d-%d" % (key_id, i)
        db.put(k, v)
        expected[k] = v
    for key_id in range(0, n, 7):
        db.delete(b"key-%04d" % key_id)
        del expected[b"key-%04d" % key_id]
    return expected


class TestPersistence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_reopen_adopts_persisted_policy(self, policy):
        storage = MemStorage()
        db = DB(storage, tiny_options(compaction_policy=policy))
        spec = db.policy.spec()
        expected = fill(db)
        db.close()

        # compaction_policy=None means "whatever the store says".
        db = DB(storage, tiny_options())
        assert db.policy.spec() == spec
        for k, v in expected.items():
            assert db.get(k) == v
        db.close()

    def test_mismatched_reopen_raises(self):
        storage = MemStorage()
        DB(storage, tiny_options(compaction_policy="tiered:runs=2")).close()
        with pytest.raises(PolicyMismatchError) as exc:
            DB(storage, tiny_options(compaction_policy="leveled"))
        assert "tiered:runs=2" in str(exc.value)
        assert "leveled" in str(exc.value)

    def test_equivalent_spec_reopen_is_fine(self):
        storage = MemStorage()
        # Bare "tiered" canonicalizes via l0_compaction_trigger.
        DB(storage, tiny_options(compaction_policy="tiered")).close()
        db = DB(storage, tiny_options(compaction_policy="tiered:runs=2"))
        assert db.policy.spec() == "tiered:runs=2"
        db.close()

    def test_legacy_store_defaults_to_leveled(self):
        storage = MemStorage()
        DB(storage, tiny_options()).close()
        db = DB(storage, tiny_options())
        assert db.policy.spec() == "leveled"
        db.close()

    @pytest.mark.parametrize("policy", ["tiered:runs=2", "lazy-leveled:runs=2"])
    def test_repair_carries_policy_forward(self, policy):
        storage = MemStorage()
        db = DB(storage, tiny_options(compaction_policy=policy))
        expected = fill(db, n=200)
        db.close()

        result = repair_db(storage, tiny_options())
        assert result["salvaged"]
        db = DB(storage, tiny_options())
        assert db.policy.spec() == policy
        for k, v in expected.items():
            assert db.get(k) == v
        db.close()


class TestTieredReads:
    @pytest.mark.parametrize("policy", ["tiered:runs=2", "lazy-leveled:runs=2"])
    def test_point_reads_and_scans_over_stacked_runs(self, policy):
        storage = MemStorage()
        db = DB(storage, tiny_options(compaction_policy=policy))
        expected = fill(db)
        db.flush()
        # Mid-shape: multiple runs alive at once.
        assert db.get(b"key-0001") == expected[b"key-0001"]
        assert list(db.scan()) == sorted(expected.items())
        db.compact_all()
        assert list(db.scan()) == sorted(expected.items())
        assert list(db.scan_reverse()) == sorted(expected.items(), reverse=True)
        db.close()
        report = verify_db(storage, tiny_options())
        assert report.ok, report.render()

    def test_tiered_write_stall_fires_on_run_count_and_recovers(self):
        storage = MemStorage()
        db = DB(
            storage,
            tiny_options(
                compaction_policy="tiered:runs=2", l0_stop_writes_trigger=3
            ),
        )
        # Hold the compactor back so L0 runs pile up to the stop
        # trigger (the stall predicate counts sorted runs, and at L0
        # every flushed file is one run).
        real_pick = db.policy.pick
        db.policy.pick = lambda version: None
        i = 0
        while db.version.num_runs(0) < 3:
            db.put(b"key-%06d" % i, b"x" * 64)
            i += 1
        db.policy.pick = real_pick
        assert db.policy.write_stall(db.version)

        db.put(b"key-final", b"v")  # must stall, drain, then complete
        assert db.obs.metrics.counter("db.write_stalls").value >= 1
        assert not db.policy.write_stall(db.version)
        assert db.get(b"key-final") == b"v"
        for j in range(i):
            assert db.get(b"key-%06d" % j) == b"x" * 64
        db.close()


class TestProperties:
    def test_compaction_policy_property(self):
        db = DB(MemStorage(), tiny_options(compaction_policy="tiered:runs=2"))
        assert db.get_property("compaction-policy") == "tiered:runs=2"
        db.close()

    def test_compaction_log_reports_policy_and_runs(self):
        db = DB(MemStorage(), tiny_options(compaction_policy="tiered:runs=2"))
        assert db.get_property("compaction-log") == "(no compactions yet)"
        fill(db)
        db.flush()
        db.compact_all()
        log = db.get_property("compaction-log")
        assert log.startswith("policy=tiered:runs=2 runs[L0=")
        assert "policy=tiered:runs=2" in log.splitlines()[1]
        db.close()

    def test_describe_leads_with_policy(self):
        db = DB(MemStorage(), tiny_options(compaction_policy="lazy-leveled:runs=2"))
        fill(db, n=100)
        db.flush()
        desc = db.describe()
        assert desc.splitlines()[0] == "policy=lazy-leveled:runs=2"
        assert "run" in desc  # per-level run counts from Version.describe
        db.close()


class TestShardedDB:
    def test_policy_passthrough_and_properties(self):
        cluster = ShardedDB.in_memory(
            3, options=tiny_options(compaction_policy="tiered:runs=2")
        )
        try:
            assert cluster.policy.spec() == "tiered:runs=2"
            assert cluster.get_property("compaction-policy") == "tiered:runs=2"
            assert "policy=tiered:runs=2" in cluster.get_property("cluster")
            for i in range(200):
                cluster.put(b"key-%04d" % i, b"v-%d" % i)
            assert cluster.get(b"key-0042") == b"v-42"
        finally:
            cluster.close()

    def test_policy_persists_across_cluster_reopen(self, tmp_path):
        path = str(tmp_path / "cluster")
        cluster = ShardedDB.open_path(
            path, 2, options=tiny_options(compaction_policy="tiered:runs=2")
        )
        for i in range(100):
            cluster.put(b"key-%04d" % i, b"v-%d" % i)
        cluster.close()

        reopened = ShardedDB.open_path(path, options=tiny_options())
        try:
            assert reopened.policy.spec() == "tiered:runs=2"
            assert reopened.get(b"key-0001") == b"v-1"
        finally:
            reopened.close()

        with pytest.raises(PolicyMismatchError):
            ShardedDB.open_path(
                path, options=tiny_options(compaction_policy="leveled")
            )


class TestDbtool:
    @pytest.fixture()
    def tiered_dir(self, tmp_path):
        path = str(tmp_path / "db")
        db = DB(
            OSStorage(path), tiny_options(compaction_policy="tiered:runs=2")
        )
        fill(db, n=300)
        db.flush()
        db.close()
        return path

    def test_fsck_understands_tiered_layout(self, tiered_dir, capsys):
        assert dbtool_main(["fsck", tiered_dir]) == 0
        assert "OK" in capsys.readouterr().out

    def test_stats_reports_policy_and_runs(self, tiered_dir, capsys):
        assert dbtool_main(["stats", tiered_dir]) == 0
        out = capsys.readouterr().out
        assert "policy: tiered:runs=2" in out
        assert "runs per level:" in out

    def test_stats_policy_flag_mismatch_fails_loudly(self, tiered_dir):
        with pytest.raises(PolicyMismatchError):
            dbtool_main(
                ["stats", tiered_dir, "--compaction-policy", "leveled"]
            )

    def test_compact_honours_persisted_policy(self, tiered_dir, capsys):
        assert dbtool_main(["compact", tiered_dir]) == 0
        assert "tiered:runs=2" in capsys.readouterr().out
        assert dbtool_main(["fsck", tiered_dir]) == 0
