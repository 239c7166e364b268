"""Tests for level metadata (Version) and compaction picking."""

import pytest

from repro.compaction import LeveledPolicy
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, Version, sstable_number


def _ik(user: bytes, seq: int = 1) -> bytes:
    return encode_internal_key(user, seq, KIND_VALUE)


def _meta(number, lo, hi, size=1024):
    return FileMetaData(number, size, _ik(lo), _ik(hi))


def _options(**kw):
    defaults = dict(level1_bytes=10 * 1024, level_multiplier=10)
    defaults.update(kw)
    return Options(**defaults)


class TestVersion:
    def test_add_and_query(self):
        v = Version(_options())
        v.add_file(1, _meta(1, b"a", b"m"))
        v.add_file(1, _meta(2, b"n", b"z"))
        assert v.num_files(1) == 2
        assert v.level_bytes(1) == 2048
        v.check_invariants()

    def test_ordered_insert_in_level(self):
        v = Version(_options())
        v.add_file(1, _meta(2, b"n", b"z"))
        v.add_file(1, _meta(1, b"a", b"m"))
        assert [m.number for m in v.files[1]] == [1, 2]

    def test_l0_keeps_arrival_order(self):
        v = Version(_options())
        v.add_file(0, _meta(5, b"a", b"z"))
        v.add_file(0, _meta(6, b"a", b"z"))
        assert [m.number for m in v.files[0]] == [5, 6]

    def test_remove_file(self):
        v = Version(_options())
        v.add_file(1, _meta(1, b"a", b"m"))
        removed = v.remove_file(1, 1)
        assert removed.number == 1
        with pytest.raises(KeyError):
            v.remove_file(1, 1)

    def test_level_out_of_range(self):
        v = Version(_options())
        with pytest.raises(ValueError):
            v.add_file(99, _meta(1, b"a", b"b"))

    def test_files_for_get_order(self):
        v = Version(_options())
        v.add_file(0, _meta(1, b"a", b"z"))
        v.add_file(0, _meta(2, b"a", b"z"))
        v.add_file(1, _meta(3, b"a", b"m"))
        v.add_file(2, _meta(4, b"a", b"m"))
        hits = v.files_for_get(b"c")
        # L0 newest first, then one file per level.
        assert [(lv, m.number) for lv, m in hits] == [(0, 2), (0, 1), (1, 3), (2, 4)]

    def test_files_for_get_skips_nonoverlapping(self):
        v = Version(_options())
        v.add_file(1, _meta(1, b"a", b"c"))
        v.add_file(1, _meta(2, b"x", b"z"))
        hits = v.files_for_get(b"m")
        assert hits == []

    def test_overlapping_files(self):
        v = Version(_options())
        v.add_file(1, _meta(1, b"a", b"f"))
        v.add_file(1, _meta(2, b"g", b"p"))
        v.add_file(1, _meta(3, b"q", b"z"))
        hits = v.overlapping_files(1, b"e", b"h")
        assert [m.number for m in hits] == [1, 2]
        assert len(v.overlapping_files(1, None, None)) == 3

    def test_invariant_violation_detected(self):
        v = Version(_options())
        v.files[1] = [_meta(1, b"a", b"m"), _meta(2, b"g", b"z")]
        with pytest.raises(AssertionError):
            v.check_invariants()

    def test_describe(self):
        v = Version(_options())
        assert v.describe() == "(empty)"
        v.add_file(1, _meta(7, b"a", b"b"))
        assert "L1" in v.describe() and "#7" in v.describe()


class TestFileNumbers:
    def test_unnumbered_name_gets_one_number_in_every_interpreter(self):
        """The number lands in the MANIFEST (repair) and in
        ``next_file_number``: it must not hang on PYTHONHASHSEED."""
        import os
        import subprocess
        import sys

        assert sstable_number("000123.sst") == sstable_number("dir/000123.sst") == 123
        script = (
            "from repro.lsm.version import sstable_number;"
            "print(sstable_number('out-0001.sst'))"
        )
        numbers = set()
        for seed in ("1", "2"):
            env = dict(
                os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED=seed
            )
            done = subprocess.run(
                [sys.executable, "-c", script], check=True, env=env, timeout=60,
                capture_output=True, text=True,
            )
            numbers.add(int(done.stdout))
        assert numbers == {sstable_number("out-0001.sst")}
        assert 0 <= min(numbers) < 1 << 31


class TestPickerL0:
    def test_no_compaction_when_quiet(self):
        opts = _options(l0_compaction_trigger=4)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(0, _meta(1, b"a", b"m"))
        assert picker.pick(v) is None
        assert not picker.needs_compaction(v)

    def test_l0_trigger_by_file_count(self):
        opts = _options(l0_compaction_trigger=2)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(0, _meta(1, b"a", b"m"))
        v.add_file(0, _meta(2, b"d", b"q"))
        task = picker.pick(v)
        assert task is not None and task.level == 0
        assert {m.number for m in task.inputs_upper} == {1, 2}

    def test_l0_pulls_in_transitive_overlaps(self):
        opts = _options(l0_compaction_trigger=3)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(0, _meta(1, b"a", b"e"))
        v.add_file(0, _meta(2, b"d", b"k"))
        v.add_file(0, _meta(3, b"j", b"p"))
        task = picker.pick(v)
        assert {m.number for m in task.inputs_upper} == {1, 2, 3}

    def test_l0_includes_overlapping_l1(self):
        opts = _options(l0_compaction_trigger=1)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(0, _meta(1, b"d", b"h"))
        v.add_file(1, _meta(2, b"a", b"e"))
        v.add_file(1, _meta(3, b"x", b"z"))
        task = picker.pick(v)
        assert [m.number for m in task.inputs_lower] == [2]


class TestPickerLevels:
    def test_size_trigger(self):
        opts = _options(level1_bytes=1000)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(1, _meta(1, b"a", b"m", size=600))
        v.add_file(1, _meta(2, b"n", b"z", size=600))
        task = picker.pick(v)
        assert task is not None and task.level == 1
        assert len(task.inputs_upper) == 1

    def test_round_robin_pointer(self):
        opts = _options(level1_bytes=100)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(1, _meta(1, b"a", b"f", size=200))
        v.add_file(1, _meta(2, b"g", b"p", size=200))
        first = picker.pick(v)
        assert first.inputs_upper[0].number == 1
        second = picker.pick(v)
        assert second.inputs_upper[0].number == 2
        third = picker.pick(v)  # wraps
        assert third.inputs_upper[0].number == 1

    def test_trivial_move_detected(self):
        opts = _options(level1_bytes=100)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(1, _meta(1, b"a", b"f", size=200))
        task = picker.pick(v)
        assert task.is_trivial_move()

    def test_overlap_disables_trivial_move(self):
        opts = _options(level1_bytes=100)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(1, _meta(1, b"a", b"f", size=200))
        v.add_file(2, _meta(2, b"c", b"d", size=50))
        task = picker.pick(v)
        assert not task.is_trivial_move()
        assert task.input_bytes() == 250

    def test_key_range_user(self):
        opts = _options(level1_bytes=100)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        v.add_file(1, _meta(1, b"d", b"f", size=200))
        v.add_file(2, _meta(2, b"a", b"e", size=50))
        task = picker.pick(v)
        assert task.key_range_user() == (b"a", b"f")

    def test_write_stall(self):
        opts = _options(l0_stop_writes_trigger=3)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        for i in range(3):
            v.add_file(0, _meta(i, b"a", b"z"))
        assert picker.write_stall(v)

    def test_deepest_level_never_picked_as_source(self):
        opts = _options(level1_bytes=1, num_levels=3)
        picker = LeveledPolicy(opts)
        v = Version(opts)
        # Oversize the bottom level: still no compaction from it.
        v.add_file(2, _meta(1, b"a", b"z", size=10**9))
        assert picker.pick(v) is None
