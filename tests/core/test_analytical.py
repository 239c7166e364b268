"""Tests for Equations 1-7 and bound classification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.analytical import (
    CPU_BOUND,
    IO_BOUND,
    classify,
    cppcp_bandwidth,
    cppcp_max_speedup,
    cppcp_saturation_k,
    cppcp_speedup,
    pcp_bandwidth,
    pcp_speedup,
    scp_bandwidth,
    sppcp_bandwidth,
    sppcp_max_speedup,
    sppcp_saturation_k,
    sppcp_speedup,
)
from repro.core.costmodel import StageTimes, StepTimes

L = 1 << 20

# An SSD-like profile: compute-bound.
SSD = StageTimes(t_read=0.004, t_compute=0.025, t_write=0.012)
# An HDD-like profile: read-bound.
HDD = StageTimes(t_read=0.030, t_compute=0.020, t_write=0.012)

stage_times = st.builds(
    StageTimes,
    t_read=st.floats(min_value=1e-6, max_value=1.0),
    t_compute=st.floats(min_value=1e-6, max_value=1.0),
    t_write=st.floats(min_value=1e-6, max_value=1.0),
)


class TestEquations:
    def test_eq1_scp(self):
        assert scp_bandwidth(L, SSD) == pytest.approx(L / 0.041)

    def test_eq2_pcp(self):
        assert pcp_bandwidth(L, SSD) == pytest.approx(L / 0.025)

    def test_eq3_speedup(self):
        assert pcp_speedup(SSD) == pytest.approx(0.041 / 0.025)

    def test_eq4_sppcp(self):
        # k=3 on HDD: read 0.030/3 = 0.010 < compute -> compute-bound.
        assert sppcp_bandwidth(L, HDD, 3) == pytest.approx(L / 0.020)
        assert sppcp_bandwidth(L, HDD, 1) == pytest.approx(L / 0.030)

    def test_eq5_speedup(self):
        assert sppcp_speedup(HDD, 2) == pytest.approx(0.030 / 0.020)

    def test_eq6_cppcp(self):
        # k=2 on SSD: compute 0.0125 > write? no, write 0.012 < 0.0125.
        assert cppcp_bandwidth(L, SSD, 2) == pytest.approx(L / 0.0125)
        assert cppcp_bandwidth(L, SSD, 4) == pytest.approx(L / 0.012)

    def test_eq7_speedup(self):
        assert cppcp_speedup(SSD, 2) == pytest.approx(0.025 / 0.0125)

    def test_step_times_accepted(self):
        steps = StepTimes(0.004, 0.002, 0.002, 0.01, 0.009, 0.002, 0.012)
        assert steps.compute_total == pytest.approx(0.025)
        assert pcp_bandwidth(L, steps) == pytest.approx(L / 0.025)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            sppcp_bandwidth(L, HDD, 0)
        with pytest.raises(ValueError):
            cppcp_bandwidth(L, SSD, -1)

    def test_zero_times_rejected(self):
        """Eqs 1-7 all raise ValueError, none ZeroDivisionError."""
        for eq in (
            lambda t: scp_bandwidth(L, t),
            lambda t: pcp_bandwidth(L, t),
            pcp_speedup,
            lambda t: sppcp_bandwidth(L, t, 2),
            lambda t: sppcp_speedup(t, 2),
            lambda t: cppcp_bandwidth(L, t, 2),
            lambda t: cppcp_speedup(t, 2),
        ):
            with pytest.raises(ValueError):
                eq(StageTimes(0, 0, 0))


class TestBounds:
    @given(stage_times)
    def test_pcp_speedup_bounded_by_3(self, times):
        assert 1.0 <= pcp_speedup(times) <= 3.0 + 1e-9

    @given(stage_times, st.integers(min_value=1, max_value=16))
    def test_eq5_bound_holds(self, times, k):
        assert sppcp_speedup(times, k) <= sppcp_max_speedup(times, k) * (1 + 1e-9) + 1e-9

    @given(stage_times, st.integers(min_value=1, max_value=16))
    def test_eq7_bound_holds(self, times, k):
        assert cppcp_speedup(times, k) <= cppcp_max_speedup(times, k) * (1 + 1e-9) + 1e-9

    @given(stage_times, st.integers(min_value=1, max_value=16))
    def test_speedups_at_least_one(self, times, k):
        assert sppcp_speedup(times, k) >= 1.0 - 1e-12
        assert cppcp_speedup(times, k) >= 1.0 - 1e-12

    @given(stage_times, st.integers(min_value=1, max_value=15))
    def test_monotone_in_k(self, times, k):
        assert sppcp_bandwidth(L, times, k + 1) >= sppcp_bandwidth(L, times, k) - 1e-9
        assert cppcp_bandwidth(L, times, k + 1) >= cppcp_bandwidth(L, times, k) - 1e-9

    @given(stage_times)
    def test_pcp_at_least_scp(self, times):
        assert pcp_bandwidth(L, times) >= scp_bandwidth(L, times) - 1e-9


class TestClassification:
    def test_ssd_is_cpu_bound(self):
        assert classify(SSD) == CPU_BOUND

    def test_hdd_is_io_bound(self):
        assert classify(HDD) == IO_BOUND

    def test_sppcp_saturation(self):
        # HDD: read/compute = 1.5 -> saturates at k=2.
        assert sppcp_saturation_k(HDD) == 2

    def test_cppcp_saturation(self):
        # SSD: compute/write = 25/12 -> saturates at k=3 (ceil 2.08).
        assert cppcp_saturation_k(SSD) == 3

    @given(stage_times)
    def test_saturation_transforms_boundedness(self, times):
        """Paper §III-C: past k*, S-PPCP is CPU-bound and C-PPCP I/O-bound."""
        ks = sppcp_saturation_k(times)
        st_after = StageTimes(
            times.t_read / ks, times.t_compute, times.t_write / ks
        )
        assert classify(st_after) == CPU_BOUND
        kc = cppcp_saturation_k(times)
        ct_after = StageTimes(times.t_read, times.t_compute / kc, times.t_write)
        assert classify(ct_after) == CPU_BOUND or max(
            ct_after.t_read, ct_after.t_write
        ) >= ct_after.t_compute

    @given(stage_times, st.integers(min_value=1, max_value=32))
    def test_no_gain_past_saturation(self, times, extra):
        ks = sppcp_saturation_k(times)
        assert sppcp_bandwidth(L, times, ks + extra) == pytest.approx(
            sppcp_bandwidth(L, times, ks)
        )
        kc = cppcp_saturation_k(times)
        assert cppcp_bandwidth(L, times, kc + extra) == pytest.approx(
            cppcp_bandwidth(L, times, kc)
        )
