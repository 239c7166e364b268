"""Tests for the per-step cost model and its calibration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.costmodel import DEFAULT_KV_BYTES, CostModel, StageTimes, StepTimes
from repro.devices import make_device

MB = 1 << 20


class TestStepTimes:
    def test_totals(self):
        t = StepTimes(1, 2, 3, 4, 5, 6, 7)
        assert t.total == 28
        assert t.compute_total == 2 + 3 + 4 + 5 + 6
        st_ = t.stages()
        assert (st_.t_read, st_.t_compute, st_.t_write) == (1, 20, 7)

    def test_as_dict_keys(self):
        t = StepTimes(1, 2, 3, 4, 5, 6, 7)
        assert set(t.as_dict()) == {
            "read", "checksum", "decompress", "merge", "compress",
            "rechecksum", "write",
        }

    def test_stage_times_helpers(self):
        s = StageTimes(1.0, 3.0, 2.0)
        assert s.total == 6.0
        assert s.bottleneck == "compute"
        scaled = s.scaled(2.0)
        assert scaled.t_write == 4.0


class TestDefaults:
    def test_compute_total_at_default_config(self):
        """The constant the device presets were calibrated against."""
        cm = CostModel()
        entries = cm.entries_for(MB)
        t = cm.compute_times(MB, entries)
        assert t.compute_total == pytest.approx(0.0256, rel=0.02)

    def test_compress_costliest_decompress_cheapest(self):
        """Paper §IV-B: 'step comp is almost the most costly', 'step
        decomp takes the least amount of time'."""
        cm = CostModel()
        t = cm.compute_times(MB, cm.entries_for(MB))
        cpu_steps = {
            "checksum": t.checksum,
            "decompress": t.decompress,
            "merge": t.merge,
            "compress": t.compress,
            "rechecksum": t.rechecksum,
        }
        assert max(cpu_steps, key=cpu_steps.get) == "compress"
        assert min(cpu_steps, key=cpu_steps.get) == "decompress"

    def test_crc_under_5_percent(self):
        """Paper: 'either step crc or step re-crc takes less than 5%'."""
        cm = CostModel()
        ssd = make_device("ssd")
        t = cm.step_times(MB, cm.entries_for(MB), ssd, ssd)
        assert t.checksum / t.total < 0.05
        assert t.rechecksum / t.total < 0.05

    def test_merge_shrinks_with_kv_size(self):
        """Paper Fig 8: 'as the key-value size increases step sort
        takes less time'."""
        cm = CostModel()
        t64 = cm.compute_times(MB, cm.entries_for(MB, 64))
        t1024 = cm.compute_times(MB, cm.entries_for(MB, 1024))
        assert t64.merge > 10 * t1024.merge

    def test_entries_for(self):
        cm = CostModel()
        assert cm.entries_for(MB) == MB // DEFAULT_KV_BYTES
        assert cm.entries_for(10) == 1  # never zero
        with pytest.raises(ValueError):
            cm.entries_for(MB, 0)

    def test_compression_ratio_scales_write(self):
        # Ratio small enough that the output drops below one channel
        # chunk (the SSD write time is flat between chunk multiples).
        cm_small = CostModel(compression_ratio=0.05)
        cm_full = CostModel(compression_ratio=1.0)
        ssd = make_device("ssd")
        t_small = cm_small.step_times(MB, 100, ssd, ssd)
        t_full = cm_full.step_times(MB, 100, ssd, ssd)
        assert t_small.write < t_full.write
        assert t_small.rechecksum == pytest.approx(t_full.rechecksum * 0.05)
        assert t_small.read == t_full.read

    @given(st.integers(min_value=1024, max_value=8 * MB))
    def test_times_scale_linearly_in_bytes(self, nbytes):
        cm = CostModel()
        t = cm.compute_times(nbytes, 100)
        assert t.compress == pytest.approx(cm.compress_s_per_byte * nbytes)
        assert t.checksum == pytest.approx(cm.checksum_s_per_byte * nbytes)


class TestDeviceIntegration:
    def test_hdd_vs_ssd_profiles(self):
        """Fig 5: HDD is I/O-bound, SSD is CPU-bound."""
        from repro.core.analytical import CPU_BOUND, IO_BOUND, classify

        cm = CostModel()
        entries = cm.entries_for(MB)
        hdd = make_device("hdd")
        ssd = make_device("ssd")
        assert classify(cm.step_times(MB, entries, hdd, hdd)) == IO_BOUND
        assert classify(cm.step_times(MB, entries, ssd, ssd)) == CPU_BOUND

    def test_ssd_write_slower_than_read(self):
        cm = CostModel()
        ssd = make_device("ssd")
        t = cm.step_times(MB, 100, ssd, ssd)
        assert t.write > t.read

    def test_hdd_read_dominates(self):
        cm = CostModel()
        hdd = make_device("hdd")
        t = cm.step_times(MB, cm.entries_for(MB), hdd, hdd)
        assert t.read / t.total > 0.40

    def test_sequential_read_cheaper(self):
        cm = CostModel()
        hdd = make_device("hdd")
        seq = cm.step_times(MB, 100, hdd, hdd, sequential_read=True)
        rnd = cm.step_times(MB, 100, hdd, hdd, sequential_read=False)
        assert seq.read < rnd.read


class TestCalibration:
    def test_calibrate_produces_positive_constants(self):
        cm = CostModel.calibrate(sample_bytes=1 << 14)
        assert cm.checksum_s_per_byte > 0
        assert cm.decompress_s_per_byte > 0
        assert cm.compress_s_per_byte > 0
        assert cm.merge_s_per_entry > 0

    def test_calibrated_compress_costlier_than_decompress(self):
        """The pure-Python lz77 has the paper's cost asymmetry."""
        cm = CostModel.calibrate(sample_bytes=1 << 15)
        assert cm.compress_s_per_byte > cm.decompress_s_per_byte

    def test_calibrated_checksum_is_the_engines(self):
        """The engine checksums with zlib's CRC-32, far cheaper per byte
        than lz77 decompression; a pure-Python CRC stand-in is not."""
        cm = CostModel.calibrate(sample_bytes=1 << 15)
        assert cm.checksum_s_per_byte < cm.decompress_s_per_byte / 10

    def test_calibrate_fits_the_engine_profile(self, monkeypatch):
        """calibrate() is a fit over the engine's traced profile: the
        model it returns charges that profile's S2-S5 seconds back."""
        from repro.core import costmodel

        profile = costmodel.RealStepProfile(
            times=StepTimes(read=0.001, checksum=0.002, decompress=0.005,
                            merge=0.011, compress=0.017, rechecksum=0.003,
                            write=0.004),
            input_bytes=123_457, entries=1_021, storage=None, outputs=[],
            stats=None,
        )
        calls = []

        def fake_profile(*args, **kwargs):
            calls.append((args, kwargs))
            return profile

        monkeypatch.setattr(costmodel, "profile_steps_real", fake_profile)
        cm = CostModel.calibrate()
        assert len(calls) == 1
        times = cm.compute_times(profile.input_bytes, profile.entries)
        for step in ("checksum", "decompress", "merge", "compress"):
            assert getattr(times, step) == pytest.approx(
                getattr(profile.times, step), rel=1e-9
            ), step
