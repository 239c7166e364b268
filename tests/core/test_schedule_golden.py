"""The pipeline schedule, pinned to the discrete-event kernel it replaced.

``schedule_golden.json`` holds the output of ``simulate_pipeline`` and
of the deep-pipeline ablation's ``_simulate_deep_pipeline`` on every
config :func:`pipeline_cases` and :func:`deep_cases` generate, recorded
at commit 6275da1 (the last one with the ``repro.sim`` kernel) by
running this file as a script against that commit's source::

    PYTHONPATH=<checkout of 6275da1>/src \\
        python tests/core/test_schedule_golden.py > tests/core/schedule_golden.json

Equality is exact (``==`` on floats): the makespan, every stage's busy
time, and a digest of the full timeline, worker labels included.  The
configs cross every ``PipelineConfig`` field with uniform, ragged, tied
and zero-time jobs, so tie order (``shared_io`` with several devices,
the hand-off lock with several compute workers) is covered.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from repro.bench.experiments.ablations import _simulate_deep_pipeline
from repro.core.backends.simbackend import PipelineConfig, SimJob, simulate_pipeline
from repro.core.costmodel import CostModel, StageTimes
from repro.devices import make_device

GOLDEN = Path(__file__).with_name("schedule_golden.json")
SHAPES = ("uniform", "ragged", "tied", "zero")


def _jobs(rng: random.Random, shape: str, n: int) -> list[SimJob]:
    def stage() -> float:
        if shape == "tied":
            return rng.choice((0.0025, 0.005, 0.01))
        if shape == "zero":
            return rng.choice((0.0, 0.0, 0.005))
        return rng.uniform(0.0, 0.01)

    if shape == "uniform":
        times = StageTimes(stage(), stage(), stage())
        return [SimJob(i, times, 1000) for i in range(n)]
    jobs = []
    for i in range(n):
        if shape == "zero" and rng.random() < 0.3:
            times = StageTimes(0.0, 0.0, 0.0)
        else:
            times = StageTimes(stage(), stage(), stage())
        jobs.append(SimJob(i, times, 1000 + i))
    return jobs


def pipeline_cases():
    """1,728 seeded ``(name, jobs, config)`` cases over every config field."""
    grid = itertools.product(
        (1, 2, 3, 5), (1, 2, 4), (1, 2, 8), (False, True), (0.0, 0.0025), SHAPES,
        (1, 7, 24),
    )
    for seed, (devices, workers, cap, shared, handoff, shape, n) in enumerate(grid):
        config = PipelineConfig(
            compute_workers=workers, n_devices=devices, queue_capacity=cap,
            shared_io=shared, handoff_overhead_s=handoff,
        )
        yield f"pipeline-{seed}", _jobs(random.Random(seed), shape, n), config


def deep_cases():
    """The depth ablation's own three configs, then 96 seeded ones."""
    cm = CostModel()
    ssd = make_device("ssd")
    steps = cm.step_times(1 << 20, cm.entries_for(1 << 20), ssd, ssd)
    jobs = [SimJob(i, steps.stages(), 1 << 20) for i in range(16)]
    c = steps.compute_total
    for name, splits in (
        ("even-2", [0.5, 0.5]),
        ("even-3", [1 / 3, 1 / 3, 1 / 3]),
        ("per-step-5", [steps.checksum / c, steps.decompress / c, steps.merge / c,
                        steps.compress / c, steps.rechecksum / c]),
    ):
        yield f"deep-ablation-{name}", jobs, splits, 0.0015, 2
    grid = itertools.product((1, 2, 3, 5), (0.0, 0.0015), (1, 2, 4), SHAPES)
    for seed, (n_splits, hop, cap, shape) in enumerate(grid):
        rng = random.Random(10_000 + seed)
        n = rng.choice((1, 7, 24))
        splits = [rng.uniform(0.1, 1.0) for _ in range(n_splits)]
        yield f"deep-{seed}", _jobs(rng, shape, n), splits, hop, cap


def _digest(timeline) -> str:
    rows = [(e.index, e.stage, e.start, e.end, e.worker) for e in timeline]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _pipeline_record(jobs, config) -> list:
    """``[makespan, read, compute, write busy, events, timeline digest]``."""
    res = simulate_pipeline(jobs, config)
    return [res.makespan, *res.stage_busy.values(), len(res.timeline),
            _digest(res.timeline)]


def record() -> dict:
    return {
        "pipeline": {name: _pipeline_record(jobs, config)
                     for name, jobs, config in pipeline_cases()},
        "deep": {name: _simulate_deep_pipeline(jobs, splits, hop, cap)
                 for name, jobs, splits, hop, cap in deep_cases()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_cases_cover_every_config_field():
    cases = list(pipeline_cases())
    configs = [config for _, _, config in cases]
    assert len(cases) >= 400
    assert any(c.shared_io and c.n_devices >= 2 for c in configs)
    assert any(c.handoff_overhead_s > 0 and c.compute_workers >= 2 for c in configs)
    times = [j.times for _, jobs, _ in cases for j in jobs]
    assert StageTimes(0.0, 0.0, 0.0) in times
    assert len({t.t_read for t in times}) < len(times)  # ties


def test_pipeline_matches_kernel(golden):
    want = golden["pipeline"]
    got = {name: _pipeline_record(jobs, config)
           for name, jobs, config in pipeline_cases()}
    assert got.keys() == want.keys()
    diff = [name for name in want if got[name] != want[name]]
    assert not diff, f"{len(diff)} configs moved, first {diff[0]}: {got[diff[0]]}"


def test_deep_pipeline_matches_kernel(golden):
    want = golden["deep"]
    got = {name: _simulate_deep_pipeline(jobs, splits, hop, cap)
           for name, jobs, splits, hop, cap in deep_cases()}
    assert got == want


if __name__ == "__main__":
    print(json.dumps(record(), indent=0, sort_keys=True))
