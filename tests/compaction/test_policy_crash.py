"""Crash-consistency matrix under the non-default compaction policies.

Same two-phase harness as :mod:`tests.db.test_crash_consistency` —
seed a baseline, arm one crash point, write a shuffled acknowledged
workload until the power cut, reopen from the frozen disk image — but
the store runs tiered / lazy-leveled, so flushes stack sorted runs and
compactions are whole-tier merges.  The contract is identical: with
``wal_sync_interval=1`` every acked write survives every crash point, and
``verify_db`` comes back clean over the stacked-run layout.

The reopen passes ``compaction_policy=None`` on purpose: recovery must
*adopt* the persisted spec, exactly as a crashed production store
would be reopened.
"""

import random

import pytest

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

POLICIES = ["tiered:runs=2", "lazy-leveled:runs=2"]

#: Points a flush-heavy single-threaded workload always reaches (the
#: CURRENT swap only happens during the phase-2 reopen).
ALWAYS_REACHED = set(CRASH_POINTS) - {"current.tmp_written", "current.renamed"}


def crash_options(policy=None, **kw):
    """Tiny engine so a few hundred writes flush and merge tiers."""
    defaults = dict(
        memtable_bytes=4096,
        sstable_bytes=4096,
        block_bytes=1024,
        level1_bytes=16384,
        level_multiplier=4,
        l0_compaction_trigger=2,
        compaction_policy=policy,
    )
    defaults.update(kw)
    return Options(**defaults)


def run_until_crash(policy, point, seed=0, baseline=100, workload=600):
    """Two-phase harness; returns (acked dict, frozen image, crashed?)."""
    storage = FaultyStorage(MemStorage(), FaultPlan())
    acked = {}

    db = DB(storage, crash_options(policy, wal_sync_interval=1))
    assert db.policy.spec() == policy
    for i in range(baseline):
        k, v = b"base-%04d" % i, b"b-%d" % i
        db.put(k, v)
        acked[k] = v
    db.close()

    storage.arm(FaultPlan(seed=seed, crash_at=point))
    crashed = False
    try:
        db = DB(storage, crash_options(policy, wal_sync_interval=1))
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


class TestPolicyCrashMatrix:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_no_acked_write_lost(self, policy, point):
        acked, frozen, crashed = run_until_crash(policy, point)
        if point in ALWAYS_REACHED:
            assert crashed, f"workload never reached crash point {point}"

        db = DB(frozen, crash_options(wal_sync_interval=1))
        try:
            # Recovery adopted the spec the crashed store persisted.
            assert db.policy.spec() == policy
            for k, v in acked.items():
                assert db.get(k) == v, f"{policy}/{point}: lost {k!r}"
        finally:
            db.close()
        report = verify_db(frozen, crash_options())
        assert report.ok, f"{policy}/{point}: verify failed:\n{report.render()}"

    @pytest.mark.parametrize("policy", POLICIES)
    def test_compaction_crash_points_reached(self, policy):
        """Tier merges genuinely run under the crash plan — the matrix
        would be vacuous if whole-level merges never happened."""
        storage = FaultyStorage(MemStorage(), FaultPlan())
        db = DB(storage, crash_options(policy, wal_sync_interval=1))
        order = list(range(600))
        random.Random(0).shuffle(order)
        for i in order:
            db.put(b"key-%04d" % i, b"v-%d" % i)
        db.flush()
        db.close()
        seen = set(storage.points_seen)
        assert {"compaction.outputs_written", "compaction.installed"} <= seen
        assert len(seen) >= 8, sorted(seen)
