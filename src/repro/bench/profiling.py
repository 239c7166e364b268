"""Step-time profiling under the model: the data behind Figures 5, 8, and 9.

:func:`profile_steps_model` gives deterministic per-step times from the
cost model + device presets (what the quantitative figures use).  The
engine's own per-step times, traced from a real compaction, come from
:func:`repro.core.profile_steps_real`, the profile
:meth:`~repro.core.CostModel.calibrate` fits the model to.
"""

from __future__ import annotations

from ..core.costmodel import DEFAULT_KV_BYTES, CostModel, StepTimes
from ..devices import make_device

__all__ = ["profile_steps_model", "breakdown3"]


def profile_steps_model(
    subtask_bytes: int = 1 << 20,
    kv_bytes: int = DEFAULT_KV_BYTES,
    device: str = "ssd",
    cost_model: CostModel | None = None,
) -> StepTimes:
    """S1..S7 service times for one sub-task under the model."""
    cm = cost_model or CostModel()
    dev = make_device(device)
    entries = cm.entries_for(subtask_bytes, kv_bytes)
    return cm.step_times(subtask_bytes, entries, dev, dev)


def breakdown3(times: StepTimes) -> dict[str, float]:
    """Collapse S1..S7 shares into read/compute/write fractions."""
    total = times.total
    return {
        "read": times.read / total,
        "compute": times.compute_total / total,
        "write": times.write / total,
    }
