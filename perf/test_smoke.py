"""Smoke test of the benchmark itself (not part of tier-1's ``tests/``).

    python3 -m pytest perf/test_smoke.py

Runs every workload at ``--scale smoke`` through the same code path as
a real run, checks the result objects against ``BENCHMARK.json`` and
asserts that each workload bypasses what it is meant to bypass.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
WORKLOADS = ("compact", "write-heavy", "read-cached", "mixed-large")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(tmp_path, trace: int) -> dict[str, dict]:
    """All four workloads at smoke scale -> {workload: result object}."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(PERF, "run.py"), "--scale", "smoke",
            "--seed", "7", "--trace", str(trace), "--data-root", str(tmp_path),
        ],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    objects = [json.loads(l) for l in done.stdout.splitlines() if l.startswith('{"correct"')]
    assert len(objects) == len(WORKLOADS)
    return dict(zip(WORKLOADS, objects))


def _check_object(obj: dict, wanted: list[dict]) -> None:
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert obj["correct"] is True and obj["failed"] == 0
    assert isinstance(obj["attempted"], int) and obj["attempted"] >= 1
    assert set(obj["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = obj["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_benchmark_json_meets_the_contract():
    bench = _bench()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert bench["paths"] == ["perf"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    for obj in _run(tmp_path, trace=0).values():
        _check_object(obj, _bench()["end_to_end"])
        assert all(m["value"] > 0 for m in obj["metrics"].values())
    assert os.listdir(tmp_path) == []  # servers reaped, directories removed


def test_traced_run_reports_every_layer_and_the_bypasses_hold(tmp_path):
    results = _run(tmp_path, trace=1)
    for obj in results.values():
        _check_object(obj, _bench()["per_layer"])
    value = {
        w: {name: m["value"] for name, m in obj["metrics"].items()}
        for w, obj in results.items()
    }
    cached = value["read-cached"]
    assert cached["db.flushes"] == 0 and cached["compaction.count"] == 0
    assert cached["lsm.cache_hit_rate"] > 0.99
    assert value["mixed-large"]["lsm.cache_hit_rate"] < 0.5
    # compact runs no server and no DB; write-heavy never reads a block.
    assert all(v == 0 for k, v in value["compact"].items() if k.startswith(("server.", "db.")))
    assert value["write-heavy"]["lsm.blocks_per_get"] == 0
    for workload in WORKLOADS:
        with open(tmp_path / f"trace-{workload}.json") as f:
            events = json.load(f)["traceEvents"]
        assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ there is nothing to run."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "compact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
