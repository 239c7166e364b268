"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them from
rotting.  The slow full-evaluation script is exercised by the
benchmark suite instead.
"""

import runpy
import sys

import pytest

EXAMPLES = [
    "examples/quickstart.py",
    "examples/crash_recovery.py",
    "examples/bottleneck_analysis.py",
    "examples/pipeline_visualizer.py",
    "examples/server_quickstart.py",
    "examples/cluster_quickstart.py",
    "examples/ycsb_workload.py",
]


@pytest.mark.parametrize("path", EXAMPLES)
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example prints something


def test_quickstart_reports_ok(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["examples/quickstart.py"])
    runpy.run_path("examples/quickstart.py", run_name="__main__")
    assert "quickstart OK" in capsys.readouterr().out


def test_crash_recovery_reports_ok(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["examples/crash_recovery.py"])
    runpy.run_path("examples/crash_recovery.py", run_name="__main__")
    assert "crash-recovery demo OK" in capsys.readouterr().out
