"""Unit tests for the deterministic fault-injection storage layer.

These exercise :mod:`repro.devices.faults` directly, below the DB:
nth-op and probabilistic error injection, seeded bit flips, the
durability model behind ``frozen_storage``, crash-point semantics, and
the FaultPlan JSON round-trip.  The DB-level crash matrix lives in
``tests/db/test_crash_consistency.py``.
"""

import pytest

from repro.devices import MemStorage, StorageError
from repro.devices.faults import (
    CRASH_POINTS,
    FaultPlan,
    FaultyStorage,
    SimulatedCrash,
    TransientIOError,
    corrupt_file,
    find_faulty,
    fire_crash_point,
)
from repro.devices.vfs import MeteredStorage
from repro.obs import MetricsRegistry


def _write(storage, name, data, sync=True):
    with storage.create(name) as f:
        f.append(data)
        if sync:
            f.sync()


class TestFaultPlan:
    def test_defaults_inject_nothing(self):
        s = FaultyStorage(MemStorage())
        for i in range(50):
            _write(s, f"f{i}", b"x" * 100)
            assert s.open(f"f{i}").read_all() == b"x" * 100
        assert s.injected == {}

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(bitflip_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(fail_nth={"chmod": 1})
        with pytest.raises(ValueError):
            FaultPlan(fail_nth={"write": 0})
        with pytest.raises(ValueError):
            FaultPlan(crash_at="no.such.point")

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            write_error_rate=0.25,
            fail_nth={"sync": 3},
            max_errors=2,
            crash_at="wal.sync",
            torn_tail=True,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        # Defaults are elided (seed always kept for reproducibility).
        assert "read_error_rate" not in FaultPlan(seed=1).to_json()
        with pytest.raises(ValueError):
            FaultPlan.from_json("[1, 2]")


class TestErrorInjection:
    def test_fail_nth_write_fires_exactly_once(self):
        s = FaultyStorage(MemStorage(), FaultPlan(fail_nth={"write": 3}))
        f = s.create("a")
        f.append(b"1")
        f.append(b"2")
        with pytest.raises(TransientIOError):
            f.append(b"3")
        f.append(b"3")  # op #4: plan already consumed
        f.sync()
        f.close()
        assert s.injected == {"write": 1}
        assert s.open("a").read_all() == b"123"

    def test_fail_nth_sync_and_rename(self):
        s = FaultyStorage(MemStorage(), FaultPlan(fail_nth={"sync": 1, "rename": 1}))
        f = s.create("a")
        f.append(b"x")
        with pytest.raises(TransientIOError):
            f.sync()
        f.sync()
        f.close()
        with pytest.raises(TransientIOError):
            s.rename("a", "b")
        s.rename("a", "b")
        assert s.exists("b")

    def test_probabilistic_errors_reproducible(self):
        def run():
            s = FaultyStorage(
                MemStorage(),
                FaultPlan(seed=42, write_error_rate=0.3),
            )
            failures = []
            f = s.create("a")
            for i in range(200):
                try:
                    f.append(b"x")
                except TransientIOError:
                    failures.append(i)
            return failures

        first, second = run(), run()
        assert first == second
        assert len(first) > 0

    def test_max_errors_budget_lets_retries_converge(self):
        s = FaultyStorage(
            MemStorage(),
            FaultPlan(seed=1, sync_error_rate=1.0, max_errors=2),
        )
        f = s.create("a")
        f.append(b"x")
        attempts = 0
        while True:
            try:
                f.sync()
                break
            except TransientIOError:
                attempts += 1
                assert attempts <= 2
        assert attempts == 2
        assert s.injected["sync"] == 2

    def test_read_error_injection(self):
        s = FaultyStorage(MemStorage(), FaultPlan(fail_nth={"read": 1}))
        _write(s, "a", b"hello")
        with pytest.raises(TransientIOError):
            s.open("a").pread(0, 5)
        assert s.open("a").pread(0, 5) == b"hello"


class TestBitFlips:
    def test_bitflips_deterministic_and_counted(self):
        def run():
            s = FaultyStorage(MemStorage(), FaultPlan(seed=9, bitflip_rate=0.5))
            _write(s, "a", bytes(range(256)))
            return [s.open("a").pread(0, 256) for _ in range(20)], dict(s.injected)

        (reads1, counts1), (reads2, counts2) = run(), run()
        assert reads1 == reads2
        assert counts1 == counts2
        flipped = [r for r in reads1 if r != bytes(range(256))]
        assert flipped, "0.5 flip rate over 20 reads should hit at least once"
        assert counts1["bitflip"] == len(flipped)
        for r in flipped:  # exactly one bit differs
            diff = [a ^ b for a, b in zip(r, bytes(range(256))) if a != b]
            assert len(diff) == 1 and bin(diff[0]).count("1") == 1


class TestFrozenImage:
    def test_synced_bytes_survive_unsynced_dropped(self):
        s = FaultyStorage(MemStorage())
        f = s.create("a")
        f.append(b"durable")
        f.sync()
        f.append(b"-volatile")
        # no sync, no crash needed: freeze models a power cut now
        frozen = s.frozen_storage()
        assert frozen.open("a").read_all() == b"durable"

    def test_image_is_a_copy_later_appends_do_not_reach(self):
        s = FaultyStorage(MemStorage())
        f = s.create("a")
        f.append(b"durable")
        f.sync()
        frozen = s.frozen_storage()
        f.append(b"-later")
        f.sync()
        assert frozen.open("a").read_all() == b"durable"
        assert s.open("a").read_all() == b"durable-later"

    def test_created_never_synced_file_vanishes(self):
        s = FaultyStorage(MemStorage())
        f = s.create("ghost")
        f.append(b"never synced")
        frozen = s.frozen_storage()
        assert not frozen.exists("ghost")

    def test_preexisting_files_taken_whole(self):
        inner = MemStorage()
        _write(inner, "old", b"from before the wrapper")
        s = FaultyStorage(inner)
        assert s.frozen_storage().open("old").read_all() == b"from before the wrapper"

    def test_torn_tail_keeps_seeded_prefix(self):
        def run(seed):
            s = FaultyStorage(MemStorage(), FaultPlan(seed=seed, torn_tail=True))
            f = s.create("a")
            f.append(b"D" * 10)
            f.sync()
            f.append(b"V" * 100)
            return s.frozen_storage().open("a").read_all()

        datas = {seed: run(seed) for seed in range(8)}
        for data in datas.values():
            assert data[:10] == b"D" * 10
            assert 10 <= len(data) <= 110
            assert data[10:] == b"V" * (len(data) - 10)
        assert run(3) == datas[3]  # same seed, same tear
        assert len({len(d) for d in datas.values()}) > 1  # seeds differ

    def test_rename_carries_durability(self):
        s = FaultyStorage(MemStorage())
        f = s.create("a.tmp")
        f.append(b"synced")
        f.sync()
        f.append(b"tail")
        f.close()
        s.rename("a.tmp", "a")
        frozen = s.frozen_storage()
        assert not frozen.exists("a.tmp")
        assert frozen.open("a").read_all() == b"synced"


class TestCrashPoints:
    def test_crash_point_freezes_storage(self):
        s = FaultyStorage(MemStorage(), FaultPlan(crash_at="wal.sync"))
        _write(s, "a", b"before")
        s.crash_point("wal.append")  # not armed: records only
        with pytest.raises(SimulatedCrash):
            s.crash_point("wal.sync")
        assert s.crashed
        assert s.points_seen == ["wal.append", "wal.sync"]
        assert s.injected["crash"] == 1
        for op in (
            lambda: s.create("b"),
            lambda: s.open("a"),
            lambda: s.delete("a"),
            lambda: s.rename("a", "b"),
        ):
            with pytest.raises(StorageError):
                op()
        # The frozen image is still obtainable after the crash.
        assert s.frozen_storage().open("a").read_all() == b"before"

    def test_crash_skip_delays_the_cut(self):
        s = FaultyStorage(
            MemStorage(), FaultPlan(crash_at="manifest.append", crash_skip=2)
        )
        s.crash_point("manifest.append")
        s.crash_point("manifest.append")
        with pytest.raises(SimulatedCrash):
            s.crash_point("manifest.append")

    def test_fire_crash_point_walks_wrapper_chain(self):
        faulty = FaultyStorage(MemStorage(), FaultPlan(crash_at="current.renamed"))
        stacked = MeteredStorage(faulty, MetricsRegistry())
        assert find_faulty(stacked) is faulty
        with pytest.raises(SimulatedCrash):
            fire_crash_point(stacked, "current.renamed")
        # Plain storage: a silent no-op.
        fire_crash_point(MemStorage(), "current.renamed")
        assert find_faulty(MemStorage()) is None

    def test_all_registered_points_are_armable(self):
        for point in CRASH_POINTS:
            s = FaultyStorage(MemStorage(), FaultPlan(crash_at=point))
            with pytest.raises(SimulatedCrash):
                s.crash_point(point)


class TestArmDisarm:
    def test_disarm_stops_faults_keeps_durability(self):
        s = FaultyStorage(MemStorage(), FaultPlan(write_error_rate=1.0))
        with pytest.raises(TransientIOError):
            s.create("a").append(b"x")
        s.disarm()
        f = s.create("b")
        f.append(b"ok")
        f.sync()
        f.append(b"tail")
        assert s.frozen_storage().open("b").read_all() == b"ok"

    def test_arm_resets_op_counters(self):
        s = FaultyStorage(MemStorage(), FaultPlan(fail_nth={"write": 1}))
        with pytest.raises(TransientIOError):
            s.create("a").append(b"x")
        s.arm(FaultPlan(fail_nth={"write": 1}))
        with pytest.raises(TransientIOError):
            s.create("b").append(b"x")


class TestCorruptFile:
    def test_flips_the_requested_byte(self):
        s = MemStorage()
        _write(s, "a", b"\x00" * 10)
        corrupt_file(s, "a", 4, 0x0F)
        data = s.open("a").read_all()
        assert data[4] == 0x0F
        assert data[:4] == b"\x00" * 4 and data[5:] == b"\x00" * 5

    def test_offset_wraps_and_empty_rejected(self):
        s = MemStorage()
        _write(s, "a", b"ab")
        corrupt_file(s, "a", 5)  # 5 % 2 == 1
        assert s.open("a").read_all()[0:1] == b"a"
        _write(s, "empty", b"")
        with pytest.raises(ValueError):
            corrupt_file(s, "empty", 0)
