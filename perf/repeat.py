"""Run the suite several times and show how far the numbers move.

    python3 perf/repeat.py [--runs 10] [--sets 2] [--workload W]

Each run is a fresh ``perf/run.py`` process (fresh server, fresh
directory) at the scale and window ``BENCHMARK.json`` runs, with its own
seed; run *i* of every set uses seed ``FIRST_SEED + i``.  Per
metric x workload it prints the median, the quartiles, the spread the
driver of ``BENCHMARK.json`` uses — (Q3 - Q1) / median, quartiles from
``statistics.quantiles(values, n=4)`` — and (max - min) / median.  It
fails if a spread exceeds the metric's bound, or if a later set's median
is worse than the first set's by more than the bound.  ``setup_s`` is
exempt from the spread rule, as it is in the driver.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from bootstrap import PERF_DIR, ROOT, require_program

require_program()

import metrics as M  # noqa: E402
import workloads as W  # noqa: E402

FIRST_SEED = 101  # the committed baseline in perf/README.md is seeds 101..110


def one_run(workload: str, seed: int, data_root: str) -> dict[str, float]:
    """Gate metrics from the result line plus the named ones from --report."""
    with tempfile.NamedTemporaryFile(suffix=".json", dir=data_root) as report:
        cmd = [
            sys.executable, os.path.join(PERF_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "0",
            "--data-root", data_root, "--report", report.name,
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"repeat: {' '.join(cmd)} exited {done.returncode}")
        line = json.loads(done.stdout.strip().splitlines()[-1])
        named = json.load(report)[workload]["report"]
    values = {name: m["value"] for name, m in line["metrics"].items()}
    values.update(named)  # same value where a name is in both
    return values


def spread(values: list[float]) -> tuple[float, float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="per set, at least 5")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", choices=W.WORKLOADS, action="append")
    parser.add_argument("--data-root", default=os.path.join(ROOT, ".perf_run"))
    args = parser.parse_args()
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    made_root = not os.path.isdir(args.data_root)
    os.makedirs(args.data_root, exist_ok=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = M.bounds(bench)

    seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
    failures = []
    for workload in args.workload or W.WORKLOADS:
        sets: list[dict[str, list[float]]] = []
        for s in range(args.sets):
            runs = [one_run(workload, seed, args.data_root) for seed in seeds]
            sets.append({name: [r[name] for r in runs] for name in runs[0]})
            print(f"\n{workload}, set {s + 1}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}")
            print(
                f"{'metric':<22}{'median':>12}{'Q1':>12}{'Q3':>12}{'IQR/med':>9}"
                f"{'range/med':>10}{'vs set 1':>9}{'bound':>7}"
            )
            for name, values in sets[s].items():
                med, q1, q3, iqr, rng = spread(values)
                better, bound = bounds[name]
                first = statistics.median(sets[0][name])
                moved = (med - first) / first
                row = f"{name:<22}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{iqr:>9.1%}{rng:>10.1%}{moved:>+9.1%}"
                if bound is None:
                    print(f"{row}{'-':>7}")
                    continue
                row += f"{bound:>7.0%}"
                if name != "setup_s" and iqr > bound:
                    row += "  SPREAD > BOUND"
                    failures.append(f"{workload} {name} set {s + 1}: spread {iqr:.1%}")
                if (-moved if better == "higher" else moved) > bound:
                    row += "  MEDIAN MOVED"
                    failures.append(f"{workload} {name} set {s + 1}: median {moved:+.1%}")
                print(row)
    if made_root and not os.listdir(args.data_root):
        os.rmdir(args.data_root)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
