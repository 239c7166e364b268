"""Crash-consistency matrix: power-cut the engine at every protocol
boundary and prove no acknowledged write is ever lost.

The harness is two-phase.  Phase one runs unarmed and seeds the store
with a baseline of acknowledged writes.  Phase two arms a
:class:`FaultPlan` with one of the registered crash points, reopens,
and writes a shuffled-key workload (shuffled so L0 files overlap and
compactions must actually merge — sequential fills trivially move and
never reach the compaction crash points), recording each write only
*after* ``put`` returns.  When :class:`SimulatedCrash` fires,
``frozen_storage()`` reconstructs exactly the synced disk image — the
state a real machine would reboot to — and the test reopens from it,
asserting every acknowledged key survives and ``verify_db`` comes back
clean.

With ``wal_sync_interval=1`` every ``put`` is durable before it is
acknowledged, so the correctness contract is exact: acked ⟹ present.
"""

import random

import pytest

from repro.core import ProcedureSpec
from repro.db import DB
from repro.db.verify import verify_db
from repro.devices import MemStorage
from repro.devices.faults import (
    CRASH_POINTS,
    FaultPlan,
    FaultyStorage,
    SimulatedCrash,
)
from repro.lsm import Options

from tests.helpers import small_options


def crash_options(**kw):
    """Tiny engine so a few hundred writes flush and compact."""
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


#: Sub-tasks small enough that these tiny compactions have several, so a
#: pipelined spec really keeps a window of them in flight.
PCP = ProcedureSpec.pcp(subtask_bytes=2048)
PROCEDURES = {
    "scp": ProcedureSpec.scp(subtask_bytes=2048),
    "pcp": PCP,
    "cppcp2": ProcedureSpec.cppcp(2, subtask_bytes=2048),
}


def run_until_crash(point, seed=0, baseline=100, workload=600, spec=None):
    """Two-phase harness; returns (acked dict, frozen image, crashed?)."""
    storage = FaultyStorage(MemStorage(), FaultPlan())
    acked = {}

    db = DB(storage, crash_options(wal_sync_interval=1), compaction_spec=spec)
    for i in range(baseline):
        k, v = b"base-%04d" % i, b"b-%d" % i
        db.put(k, v)
        acked[k] = v
    db.close()

    storage.arm(FaultPlan(seed=seed, crash_at=point))
    crashed = False
    try:
        db = DB(storage, crash_options(wal_sync_interval=1), compaction_spec=spec)
        order = list(range(workload))
        random.Random(seed).shuffle(order)
        for i in order:
            k, v = b"key-%04d" % i, b"v-%d-%d" % (seed, i)
            db.put(k, v)
            acked[k] = v
        db.flush()
        db.close()
    except SimulatedCrash:
        crashed = True

    return acked, storage.frozen_storage(), crashed


#: Points a flush-heavy single-threaded workload is guaranteed to reach.
ALWAYS_REACHED = set(CRASH_POINTS) - {"current.tmp_written", "current.renamed"}


#: The rows that cut power around a compaction: repeated under PCP, the
#: procedure the server runs (S1 and S7 on the compacting thread, S2–S6
#: on a pool thread), beside the default SCP of the full matrix.
COMPACTION_POINTS = [p for p in CRASH_POINTS if p.startswith("compaction.")]


def check_no_acked_write_lost(point, spec=None):
    acked, frozen, crashed = run_until_crash(point, spec=spec)
    # CURRENT is only swapped at DB.open; those two points fire
    # during the phase-2 reopen, before any new write — every other
    # point must cut power mid-workload.
    if point in ALWAYS_REACHED:
        assert crashed, f"workload never reached crash point {point}"

    db = DB(frozen, crash_options())
    try:
        for k, v in acked.items():
            assert db.get(k) == v, f"{point}: lost acked write {k!r}"
    finally:
        db.close()
    report = verify_db(frozen, crash_options())
    assert report.ok, f"{point}: verify failed:\n{report.render()}"


def check_recovery_gc_leaves_no_garbage(point, spec=None):
    _, frozen, crashed = run_until_crash(point, seed=1, spec=spec)
    assert crashed
    db = DB(frozen, crash_options())
    db.put(b"post-recovery", b"ok")
    db.close()
    leftovers = [n for n in frozen.list() if n.endswith(".tmp")]
    assert leftovers == []
    report = verify_db(frozen, crash_options())
    assert report.ok and not report.warnings, report.render()


class TestCrashMatrix:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_no_acked_write_lost(self, point):
        check_no_acked_write_lost(point)

    @pytest.mark.parametrize("point", COMPACTION_POINTS)
    def test_no_acked_write_lost_under_pcp(self, point):
        check_no_acked_write_lost(point, PCP)

    @pytest.mark.parametrize("point", sorted(ALWAYS_REACHED))
    def test_crash_then_recovery_gc_leaves_no_garbage(self, point):
        check_recovery_gc_leaves_no_garbage(point)

    @pytest.mark.parametrize("point", COMPACTION_POINTS)
    def test_crash_then_recovery_gc_leaves_no_garbage_under_pcp(self, point):
        check_recovery_gc_leaves_no_garbage(point, PCP)


class TestCurrentSwapAtomicity:
    def test_power_cut_between_tmp_and_rename(self):
        """Satellite: a crash after CURRENT.tmp is synced but before the
        rename must leave the *old* CURRENT intact and the orphan tmp
        GC'd on reopen — never a dangling or empty CURRENT."""
        storage = FaultyStorage(MemStorage(), FaultPlan())
        db = DB(storage, crash_options(wal_sync_interval=1))
        acked = {}
        for i in range(80):
            k, v = b"k-%03d" % i, b"v-%d" % i
            db.put(k, v)
            acked[k] = v
        db.close()

        # set_current runs during open; crash between tmp-create+sync
        # and the atomic rename.
        storage.arm(FaultPlan(crash_at="current.tmp_written"))
        with pytest.raises(SimulatedCrash):
            DB(storage, crash_options(wal_sync_interval=1))

        frozen = storage.frozen_storage()
        current = frozen.open("CURRENT").read_all()
        assert current.endswith(b"\n") and current.strip()
        assert frozen.exists(current.strip().decode())
        db = DB(frozen, crash_options())
        for k, v in acked.items():
            assert db.get(k) == v
        db.close()
        assert not any(n.endswith(".tmp") for n in frozen.list())
        assert verify_db(frozen, crash_options()).ok

    def test_power_cut_right_after_rename(self):
        storage = FaultyStorage(MemStorage(), FaultPlan())
        db = DB(storage, crash_options(wal_sync_interval=1))
        for i in range(80):
            db.put(b"k-%03d" % i, b"v-%d" % i)
        db.close()

        storage.arm(FaultPlan(crash_at="current.renamed"))
        with pytest.raises(SimulatedCrash):
            DB(storage, crash_options(wal_sync_interval=1))

        frozen = storage.frozen_storage()
        db = DB(frozen, crash_options())
        assert db.get(b"k-000") == b"v-0"
        db.close()
        assert verify_db(frozen, crash_options()).ok


class TestReproducibility:
    def test_same_seed_same_frozen_image(self):
        """FaultyStorage is byte-for-byte deterministic: two identical
        seeded runs freeze identical disk images."""

        def image(seed):
            _, frozen, _ = run_until_crash(
                "compaction.outputs_written", seed=seed, workload=400
            )
            return {n: frozen.open(n).read_all() for n in frozen.list()}

        assert image(5) == image(5)

    def test_different_points_reach_count(self):
        """The workload genuinely reaches ≥8 distinct crash points
        (the acceptance bar for the matrix)."""
        storage = FaultyStorage(MemStorage(), FaultPlan())
        db = DB(storage, crash_options(wal_sync_interval=1))
        order = list(range(600))
        random.Random(0).shuffle(order)
        for i in order:
            db.put(b"key-%04d" % i, b"v-%d" % i)
        db.flush()
        db.close()
        assert len(set(storage.points_seen)) >= 8, sorted(set(storage.points_seen))


class TestSelfHealing:
    @pytest.mark.parametrize("procedure", list(PROCEDURES))
    def test_transient_write_error_retried_compaction_succeeds(self, procedure):
        """A compaction hit by an injected transient EIO succeeds on
        retry, visible in ``compaction.retries`` — under the pipelined
        procedures too, where the error has to come back from S7 with
        compute still in flight."""
        storage = FaultyStorage(MemStorage(), FaultPlan())
        db = DB(
            storage,
            small_options(l0_compaction_trigger=100, l0_stop_writes_trigger=200),
            compaction_spec=PROCEDURES[procedure],
        )
        order = list(range(700))
        random.Random(2).shuffle(order)
        for i in order:
            db.put(b"key-%04d" % i, b"v-%d" % i)
        db.flush()

        storage.arm(FaultPlan(fail_nth={"write": 1}))
        db.compact_range()
        storage.disarm()
        assert db.obs.metrics.counter("compaction.retries").value >= 1
        assert db.obs.metrics.counter("faults.injected.write").value >= 1
        for i in range(700):
            assert db.get(b"key-%04d" % i) == b"v-%d" % i
        db.close()

    def _exhaust_retries(self, spec):
        storage = FaultyStorage(MemStorage(), FaultPlan())
        opts = small_options(
            l0_compaction_trigger=100,
            l0_stop_writes_trigger=200,
            compaction_retries=2,
            compaction_retry_backoff_s=0.0,
        )
        db = DB(storage, opts, compaction_spec=spec)
        order = list(range(700))
        random.Random(4).shuffle(order)
        for i in order:
            db.put(b"key-%04d" % i, b"v-%d" % i)
        db.flush()

        storage.arm(FaultPlan(write_error_rate=1.0))
        from repro.devices.faults import TransientIOError

        with pytest.raises(TransientIOError):
            db.compact_range()
        storage.disarm()
        assert db.obs.metrics.counter("compaction.retries").value == 2
        assert db.obs.metrics.counter("compaction.failures").value == 1
        # The store still reads fine — failed outputs were GC'd.
        for i in range(700):
            assert db.get(b"key-%04d" % i) == b"v-%d" % i
        db.close()

    def test_persistent_transient_errors_exhaust_retries(self):
        self._exhaust_retries(PROCEDURES["scp"])

    @pytest.mark.parametrize("procedure", ["pcp", "cppcp2"])
    def test_persistent_transient_errors_exhaust_retries_pipelined(self, procedure):
        self._exhaust_retries(PROCEDURES[procedure])

    def test_quarantined_table_surfaces_on_reopen(self):
        from tests.helpers import corrupt_file

        storage = MemStorage()
        db = DB(
            storage,
            small_options(l0_compaction_trigger=100, l0_stop_writes_trigger=200),
        )
        order = list(range(700))
        random.Random(6).shuffle(order)
        for i in order:
            db.put(b"key-%04d" % i, b"v-%d" % i)
        db.flush()
        sst = next(n for n in storage.list() if n.endswith(".sst"))
        corrupt_file(storage, sst, 40)
        db._tables.clear()
        db._cache.clear()
        db.compact_range()
        assert sst + ".quarantined" in db.get_property("quarantine")
        db.close()

        db2 = DB(storage, small_options())
        assert sst + ".quarantined" in db2.get_property("quarantine")
        assert db2.obs.metrics.counter("recovery.quarantine_found").value >= 1
        db2.close()


class TestTornTail:
    def test_torn_wal_tail_recovers_prefix(self):
        """torn_tail mode tears the unsynced WAL bytes to a seeded
        prefix; recovery drops the torn record, counts it, and keeps
        every synced write."""
        storage = FaultyStorage(MemStorage(), FaultPlan())
        db = DB(storage, crash_options(wal_sync_interval=1))
        acked = {}
        for i in range(60):
            k, v = b"k-%03d" % i, b"v-%d" % i
            db.put(k, v)
            acked[k] = v
        db.close()

        storage.arm(FaultPlan(seed=11, crash_at="wal.sync", torn_tail=True))
        crashed = False
        try:
            db = DB(storage, crash_options(wal_sync_interval=1))
            for i in range(60, 200):
                k, v = b"k-%03d" % i, b"v-%d" % i
                db.put(k, v)
                acked[k] = v
        except SimulatedCrash:
            crashed = True
        assert crashed

        frozen = storage.frozen_storage()
        db = DB(frozen, crash_options())
        for k, v in acked.items():
            assert db.get(k) == v
        db.close()
        assert verify_db(frozen, crash_options()).ok
