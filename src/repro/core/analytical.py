"""The paper's analytical bandwidth model (Equations 1-7, §III).

All functions take the per-sub-task times of one data block / sub-task
of length ``l`` bytes and return bandwidths in bytes/second or
dimensionless speedups.  Notation follows the paper:

* ``t1`` = t_S1 (read), ``t7`` = t_S7 (write),
* ``tc`` = Σ_{i=2..6} t_Si (the fused compute stage).

======================  ========================================
Eq 1  B_scp             ``l / Σ_{i=1..7} t_Si``
Eq 2  B_pcp             ``l / max(t1, tc, t7)``
Eq 3  B_pcp/B_scp       ideal PCP speedup
Eq 4  B_s-ppcp          ``l / max(t1/k, tc, t7/k)``
Eq 5  speedup vs PCP    ≤ ``min(k, max(t1,t7)/tc)``
Eq 6  B_c-ppcp          ``l / max(t1, tc/k, t7)``
Eq 7  speedup vs PCP    ≤ ``min(k, tc/max(t1,t7))``
======================  ========================================

The classification helpers answer the paper's bound questions: a PCP
pipeline is *I/O-bound* when ``max(t1, t7) > tc`` (HDD case, Fig 6a)
and *CPU-bound* otherwise (SSD case, Fig 6b); S-PPCP turns CPU-bound
past ``k* = max(t1,t7)/tc`` disks and C-PPCP turns I/O-bound past
``k* = tc/max(t1,t7)`` cores.
"""

from __future__ import annotations

import math

from .costmodel import StageTimes, StepTimes

__all__ = [
    "scp_bandwidth",
    "pcp_bandwidth",
    "pcp_speedup",
    "sppcp_bandwidth",
    "sppcp_speedup",
    "sppcp_max_speedup",
    "cppcp_bandwidth",
    "cppcp_speedup",
    "cppcp_max_speedup",
    "classify",
    "sppcp_saturation_k",
    "cppcp_saturation_k",
    "IO_BOUND",
    "CPU_BOUND",
]

IO_BOUND = "io-bound"
CPU_BOUND = "cpu-bound"


def _stages(times: StepTimes | StageTimes) -> StageTimes:
    return times.stages() if isinstance(times, StepTimes) else times


def scp_bandwidth(l: float, times: StepTimes | StageTimes) -> float:
    """Eq 1: sequential procedure bandwidth (bytes/s)."""
    st = _stages(times)
    if st.total <= 0:
        raise ValueError("total step time must be positive")
    return l / st.total


def pcp_bandwidth(l: float, times: StepTimes | StageTimes) -> float:
    """Eq 2: 3-stage pipelined bandwidth (bytes/s)."""
    st = _stages(times)
    return l / _bottleneck(st.t_read, st.t_compute, st.t_write)


def pcp_speedup(times: StepTimes | StageTimes) -> float:
    """Eq 3: ideal PCP/SCP speedup (>= 1, <= 3 for three stages)."""
    st = _stages(times)
    return st.total / _bottleneck(st.t_read, st.t_compute, st.t_write)


def sppcp_bandwidth(l: float, times: StepTimes | StageTimes, k: int) -> float:
    """Eq 4: PCP with k storage devices."""
    _check_k(k)
    st = _stages(times)
    return l / _bottleneck(st.t_read / k, st.t_compute, st.t_write / k)


def sppcp_speedup(times: StepTimes | StageTimes, k: int) -> float:
    """Eq 5: S-PPCP bandwidth relative to plain PCP."""
    _check_k(k)
    st = _stages(times)
    base = _bottleneck(st.t_read, st.t_compute, st.t_write)
    return base / _bottleneck(st.t_read / k, st.t_compute, st.t_write / k)


def sppcp_max_speedup(times: StepTimes | StageTimes, k: int) -> float:
    """Eq 5 bound: min(k, max(t1, t7) / tc), clamped at 1.

    The paper states the bound for the I/O-bound case; when the
    pipeline is already CPU-bound the ratio drops below 1 while the
    actual speedup is exactly 1, hence the clamp.
    """
    st = _stages(times)
    if st.t_compute <= 0:
        return float(k)
    return min(float(k), max(1.0, max(st.t_read, st.t_write) / st.t_compute))


def cppcp_bandwidth(l: float, times: StepTimes | StageTimes, k: int) -> float:
    """Eq 6: PCP with k compute workers."""
    _check_k(k)
    st = _stages(times)
    return l / _bottleneck(st.t_read, st.t_compute / k, st.t_write)


def cppcp_speedup(times: StepTimes | StageTimes, k: int) -> float:
    """Eq 7: C-PPCP bandwidth relative to plain PCP."""
    _check_k(k)
    st = _stages(times)
    base = _bottleneck(st.t_read, st.t_compute, st.t_write)
    return base / _bottleneck(st.t_read, st.t_compute / k, st.t_write)


def cppcp_max_speedup(times: StepTimes | StageTimes, k: int) -> float:
    """Eq 7 bound: min(k, tc / max(t1, t7)), clamped at 1 (see Eq 5)."""
    st = _stages(times)
    io = max(st.t_read, st.t_write)
    if io <= 0:
        return float(k)
    return min(float(k), max(1.0, st.t_compute / io))


def classify(times: StepTimes | StageTimes) -> str:
    """I/O-bound (Fig 6a, HDD) vs CPU-bound (Fig 6b, SSD) pipeline."""
    st = _stages(times)
    return IO_BOUND if max(st.t_read, st.t_write) > st.t_compute else CPU_BOUND


def sppcp_saturation_k(times: StepTimes | StageTimes) -> int:
    """Smallest k at which S-PPCP stops scaling (turns CPU-bound).

    From Eq 4: scaling stops once ``max(t1, t7)/k <= tc``, i.e. at
    ``k* = ceil(max(t1, t7) / tc)``.
    """
    st = _stages(times)
    if st.t_compute <= 0:
        raise ValueError("compute time must be positive")
    return max(1, math.ceil(max(st.t_read, st.t_write) / st.t_compute))


def cppcp_saturation_k(times: StepTimes | StageTimes) -> int:
    """Smallest k at which C-PPCP stops scaling (turns I/O-bound)."""
    st = _stages(times)
    io = max(st.t_read, st.t_write)
    if io <= 0:
        raise ValueError("I/O time must be positive")
    return max(1, math.ceil(st.t_compute / io))


def _bottleneck(t_read: float, t_compute: float, t_write: float) -> float:
    """The slowest stage's time, which bounds every pipelined procedure."""
    slowest = max(t_read, t_compute, t_write)
    if slowest <= 0:
        raise ValueError("stage times must be positive")
    return slowest


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
