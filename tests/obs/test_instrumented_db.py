"""End-to-end: a traced DB emits S1–S7 spans and engine metrics."""

import json

import pytest

from repro.core.procedures import ProcedureSpec
from repro.db.db import DB
from repro.devices.vfs import MemStorage
from repro.lsm.options import Options
from repro.obs import Observability, Tracer, pipeline_overlap
from repro.server.server import KVServer


def small_options() -> Options:
    return Options(
        memtable_bytes=16 * 1024,
        sstable_bytes=8 * 1024,
        block_bytes=1024,
        level1_bytes=32 * 1024,
        level_multiplier=4,
        block_cache_entries=32,
    )


def traced_db() -> DB:
    obs = Observability(tracer=Tracer(enabled=True))
    spec = ProcedureSpec.pcp(subtask_bytes=4 * 1024)
    return DB(MemStorage(), small_options(), compaction_spec=spec, obs=obs)


def load(db: DB, n: int = 800, value_bytes: int = 120) -> None:
    # Interleave keys (7919 is coprime to n) so successive memtable
    # flushes cover overlapping key ranges: compactions then really
    # merge instead of trivially moving files down.
    value = b"v" * value_bytes
    for i in range(n):
        db.put(f"key{(i * 7919) % n:08d}".encode(), value)


class TestTracedCompaction:
    def test_forced_compaction_emits_all_pipeline_steps(self):
        db = traced_db()
        try:
            load(db)
            db.compact_range()
            names = {span.name for span in db.obs.tracer.spans()}
        finally:
            db.close()
        for step in (
            "S1:read", "S2:checksum", "S3:decompress", "S4:merge",
            "S5:compress", "S6:rechecksum", "S7:write", "S7:sync",
        ):
            assert step in names, f"missing {step} span"
        assert "flush" in names
        assert "compaction" in names

    def test_pcp_read_overlaps_compute_of_other_subtask(self):
        # Needs enough sub-tasks per compaction that the reader can run
        # ahead of the compute stage; a bigger load guarantees that.
        db = traced_db()
        try:
            load(db, n=2000, value_bytes=200)
            db.compact_range()
            pair = pipeline_overlap(db.obs.tracer.spans())
        finally:
            db.close()
        assert pair is not None, "PCP trace shows no read/compute overlap"
        read, compute = pair
        assert read.cat == "read" and compute.cat == "compute"
        assert read.args["subtask"] != compute.args["subtask"]

    def test_default_db_traces_nothing(self):
        db = DB(MemStorage(), small_options())
        try:
            load(db, n=200)
            db.compact_range()
            assert len(db.obs.tracer) == 0
        finally:
            db.close()


class TestMetricsProperties:
    def test_metrics_property_is_json(self):
        db = traced_db()
        try:
            load(db)
            db.compact_range()
            db.get(b"key00000001")
            snap = json.loads(db.get_property("metrics"))
            counters = snap["counters"]
            assert counters["wal.records"] > 0
            assert counters["wal.bytes"] > 0
            assert counters["db.flushes"] > 0
            assert counters["compaction.count"] > 0
            assert counters["io.mem.write.bytes"] > 0
            assert counters["io.mem.read.ops"] > 0
            assert snap["histograms"]["compaction.seconds"]["count"] > 0
            assert db.get_property("io-stats") is not None
            assert "hit_rate" in db.get_property("cache-stats")
        finally:
            db.close()

    def test_cache_stats_reflect_lookups(self):
        db = DB(MemStorage(), small_options())
        try:
            load(db, n=300)
            db.compact_range()
            for _ in range(3):
                db.get(b"key00000007")
            snap = json.loads(db.get_property("metrics"))
            cache_hits = snap["counters"].get("cache.hits", 0)
            assert cache_hits == db._cache.metrics.counter("cache.hits").value
            assert cache_hits > 0
        finally:
            db.close()

    def test_get_property_on_closed_db_raises(self):
        db = DB(MemStorage(), small_options())
        db.close()
        with pytest.raises(RuntimeError):
            db.get_property("metrics")

    def test_stats_payload_has_engine_section(self):
        db = DB(MemStorage(), small_options())
        server = KVServer(db)
        try:
            db.put(b"k", b"v")
            stats = server._stats_dict()
            assert set(stats) == {"server", "db", "engine"}
            assert stats["engine"]["counters"]["wal.records"] >= 1
            json.dumps(stats)  # whole payload stays JSON-serialisable
        finally:
            db.close()


class TestPassThroughIsVisible:
    """How much compaction input was moved rather than rewritten shows
    in the counters, the compaction log, the event stream and STATS."""

    def _db(self, events):
        from repro.obs import EventLog

        options = Options(
            memtable_bytes=16 * 1024, sstable_bytes=8 * 1024, block_bytes=1024,
            level1_bytes=32 * 1024, compaction_policy="tiered:runs=4",
        )
        db = DB(
            MemStorage(), options,
            compaction_spec=ProcedureSpec.pcp(subtask_bytes=4 * 1024),
            obs=Observability(events=EventLog(events.append)),
        )
        for i in range(1500):  # ascending keys: key-disjoint runs
            db.put(b"key-%05d" % i, b"v-%d" % i)
        db.compact_range()
        return db

    def test_counters_log_event_and_stats_agree(self):
        events = []
        db = self._db(events)
        try:
            counters = db.obs.metrics.snapshot()["counters"]
            blocks = counters["compaction.passthrough_blocks"]
            assert blocks > 0
            assert 0 < counters["compaction.passthrough_bytes"] <= (
                counters["compaction.input_bytes"]
            )
            ends = [e for e in events if e["event"] == "compaction.end"]
            assert ends and sum(e["pass"] for e in ends) == blocks
            log = db.get_property("compaction-log").splitlines()[1:]
            assert sum(int(line.split(" pass=")[1].split()[0]) for line in log) == blocks
            stats = KVServer(db)._stats_dict()
            assert stats["engine"]["counters"]["compaction.passthrough_blocks"] == blocks
        finally:
            db.close()

    def test_overlapping_runs_report_zero(self):
        db = DB(
            MemStorage(), small_options(),
            compaction_spec=ProcedureSpec.pcp(subtask_bytes=4 * 1024),
        )
        try:
            load(db)
            db.compact_range()
            counters = db.obs.metrics.snapshot()["counters"]
            assert counters["compaction.count"] > 0
            # Always-on counters: present, and zero where every sub-task
            # merges several runs.
            assert counters["compaction.passthrough_blocks"] == 0
            assert all(
                " pass=0 " in line
                for line in db.get_property("compaction-log").splitlines()[1:]
            )
        finally:
            db.close()

    def test_uniform_overwrites_report_reuse_not_passthrough(self):
        """Same-size overwrites of uniformly drawn keys: every sub-task
        merges several runs, yet the blocks no newer run touched come
        out of S4 as they went in and keep their stored payload."""
        import random

        from repro.obs import EventLog

        events = []
        db = DB(
            MemStorage(), small_options(),
            compaction_spec=ProcedureSpec.pcp(subtask_bytes=32 * 1024),
            obs=Observability(events=EventLog(events.append)),
        )
        try:
            rng = random.Random(3)
            for i in range(3000):
                db.put(b"key%08d" % rng.randrange(300), b"%06d" % i * 60)
            db.compact_range()
            counters = db.obs.metrics.snapshot()["counters"]
            assert counters["compaction.passthrough_blocks"] == 0
            blocks = counters["compaction.reused_blocks"]
            assert blocks > 100
            assert 0 < counters["compaction.reused_bytes"] < (
                counters["compaction.output_bytes"]
            )
            ends = [e for e in events if e["event"] == "compaction.end"]
            assert sum(e["reuse"] for e in ends) == blocks
            log = db.get_property("compaction-log").splitlines()[1:]
            assert all(" pass=0 reuse=" in line for line in log)
            assert sum(int(line.split(" reuse=")[1].split()[0]) for line in log) == blocks
            stats = KVServer(db)._stats_dict()
            assert stats["engine"]["counters"]["compaction.reused_blocks"] == blocks
        finally:
            db.close()
