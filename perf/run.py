"""The repo benchmark: four workloads, end to end and layer by layer.

    python3 perf/run.py --seed N [--workload W] [--trace] [--scale smoke|bench|full]

Runs the workloads (all four without ``--workload``), checks every
output, and prints each metric by name with its unit.  ``--trace``
re-runs the same generated inputs with the benchmark's own span recorder
around the calls into each layer, prints the per-layer numbers and
writes a Chrome-trace file.  End-to-end numbers always come from the
untraced run.

For each workload the last line printed is the result object the driver
of ``BENCHMARK.json`` reads; the exit code is non-zero if any operation
failed or any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from bootstrap import ROOT, require_program

require_program()

import compact as C  # noqa: E402
import layers as L  # noqa: E402
import metrics as M  # noqa: E402
import served as S  # noqa: E402
import workloads as W  # noqa: E402
from spans import Trace  # noqa: E402


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed today."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def preflight() -> None:
    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        sys.exit(f"perf: needs 2 cores (server + load generator), found {cores}")
    # A server left behind by a killed run exits by itself within a
    # second (perf/serve.py watches its parent); give it that long.
    for _ in range(6):
        stale = _stale_servers()
        if not stale:
            return
        time.sleep(0.5)
    sys.exit(f"perf: stale perf/serve.py still running: pids {stale}")


def _stale_servers() -> list[int]:
    """Servers of this checkout whose load generator is gone (parent is init)."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
            with open(f"/proc/{pid}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if len(argv) > 1 and os.fsdecode(argv[1]) == S.SERVE_PY and ppid == 1:
            found.append(int(pid))
    return found


def _metric_line(metric, value, unit, better, bound) -> str:
    limit = f"bound {bound:.0%}" if bound else "no bound: too noisy here"
    return f"{metric:<22}{value:>14.4f} {unit:<6} ({better} is better, {limit})"


def run_one(name: str, args, scale: W.Scale, bench: dict) -> tuple[dict, dict]:
    """Run one workload; returns the driver's result object and the full report."""

    def run(trace=None) -> dict:
        if name == "compact":
            return C.run_compact(scale, args.seed, args.seconds, args.data_root, trace)
        spec = W.SERVED[name].sized(scale, args.seconds)
        return S.run_served(spec, scale, args.seed, args.data_root, trace)

    reporter = M.compact_report if name == "compact" else M.served_report
    result = run()
    report, samples = reporter(result)
    attempted, failed = result["attempted"], result["failed"]
    cache = result["options"]["block_cache_entries"]
    print(
        f"\n== {name}  (seed {args.seed}, window {result['window_s']:.2f} s, "
        f"block cache {cache} blocks)"
    )
    bounds = M.bounds(bench)
    gate = M.gate(result, report)
    gate_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for metric, value in report.items():
        n = f"  n={samples[metric]}" if metric in samples else ""
        print(_metric_line(metric, value, M.REPORT[metric][0], *bounds[metric]) + n)
    for metric, value in gate.items():
        if metric not in report:  # a gate name's form on this workload
            note = "  gate form, see perf/README.md"
            if metric == "latency_ms" and name in M.GATE_LATENCY:
                note = "  = {}_p{}_ms".format(*M.GATE_LATENCY[name])
            print(_metric_line(metric, value, gate_units[metric], *bounds[metric]) + note)

    values = gate
    if args.trace:
        trace = Trace()
        traced = run(trace)
        attempted += traced["attempted"]
        failed += traced["failed"]
        values = per_layer(name, args, scale, result, traced, trace, bench)
        path = os.path.join(args.data_root, f"trace-{name}.json")
        trace.write(path)
        print(f"trace: {len(trace.spans)} spans -> {path}")

    print(f"ops_attempted {attempted}  ops_failed {failed}")
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"perf: not in BENCHMARK.json: {sorted(unknown)}")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
    }
    full = {
        "report": report,
        "samples": samples,
        "gate": gate,
        "window_s": result["window_s"],
        "per_layer": values if args.trace else None,
    }
    return out, full


def per_layer(name, args, scale, untraced, traced, trace, bench) -> dict[str, float]:
    """Every per-layer number of one workload, printed and returned."""
    records = traced["records"]
    if name == "compact":
        values = L.compact_layers(traced, trace)
        notes = []
        checks = {"sum(S1..S7) vs SCP wall": L.steps_vs_scp(traced, trace)}
        where = {
            f"core.s{i}": trace.total_s(f"core.s{i}") for i in range(1, 8)
        }
    else:
        spec = W.SERVED[name].sized(scale, args.seconds)
        values, gaps = L.served_layers(traced, trace)
        values.update(L.frame_micro(trace, records))
        values.update(L.db_replay(trace, spec, scale, args.seed, args.data_root))
        notes = []
        if traced["connections"] == 1:
            checks = {f"rtt({k}) vs handle + codec + ping floor": g for k, g in gaps.items()}
        else:
            # Requests of two connections queue for one interpreter on
            # each side, which no single-request floor accounts for.
            checks = {}
            notes = [
                f"note rtt({kind}) is {-gap:.0%} above handle + codec + ping floor: "
                f"requests of {traced['connections']} connections queue for one interpreter"
                for kind, gap in gaps.items()
            ]
        self_s = trace.self_seconds()
        rtt = sum(trace.total_s("server.rtt." + k) for k in W.KIND_NAMES)
        db = sum(trace.total_s("db.op." + k) for k in W.KIND_NAMES)
        where = {
            "bench: load generator loop": self_s["client.op"],
            "bench: frame passes re-run for the trace": sum(
                self_s.get(f"server.{part}.{k}", 0.0)
                for part in ("codec", "respenc")
                for k in W.KIND_NAMES
            ),
            "server: socket, frames, dispatch, queueing": rtt - db,
            "db and below (replayed in process)": db,
        }
    values.update(L.micro(trace, records, args.data_root))
    values["bench.calibration_s"] = args.calibration_s
    values["bench.loadgen_cpu_s"] = traced["loadgen_cpu_s"]
    values["bench.trace_overhead_pct"] = 100.0 * (
        traced["window_s"] / untraced["window_s"] - 1.0
    )

    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(f"-- per layer ({name}, traced run)")
    for metric in sorted(values):
        print(f"{metric:<34}{values[metric]:>16.4f} {units.get(metric, '?')}")
    total = sum(where.values())
    print("-- where the traced window's request time went")
    for label, seconds in sorted(where.items(), key=lambda kv: -kv[1]):
        print(f"{label:<44}{seconds:>10.3f} s {seconds / total:>7.1%}")
    for label, gap in checks.items():
        verdict = "ok" if abs(gap) <= 0.10 else "OUTSIDE 10 %"
        print(f"check {label}: {gap:+.1%} {verdict}")
    for label, ok in predictions(name, values).items():
        print(f"check {label}: {'ok' if ok else 'DOES NOT HOLD'}")
    for note in notes:
        print(note)
    return values


def predictions(name: str, v: dict[str, float]) -> dict[str, bool]:
    """What each workload is meant to bypass (see perf/README.md)."""
    if name == "read-cached":
        return {
            "no flush or compaction in the window": v["db.flushes"] == 0
            and v["compaction.count"] == 0,
            "cache hit rate > 0.99": v["lsm.cache_hit_rate"] > 0.99,
        }
    if name == "mixed-large":
        return {"cache hit rate < 0.5": v["lsm.cache_hit_rate"] < 0.5}
    if name == "compact":
        scp_wall = sum(v[f"core.scp.{s}_busy_s"] for s in ("read", "compute", "write"))
        return {
            "compute is >= 90 % of SCP": v["core.scp.compute_busy_s"] >= 0.9 * scp_wall
        }
    return {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=W.WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed window (default: the scale's)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=sorted(W.SCALES), default="bench")
    parser.add_argument(
        "--data-root",
        default=os.path.join(ROOT, ".perf_run"),
        help="where servers keep their files (default: inside the checkout; "
        "a tmpfs such as /dev/shm takes the disk out of the latencies)",
    )
    parser.add_argument("--report", help="also write every number as JSON here")
    args = parser.parse_args()
    scale = W.SCALES[args.scale]
    if args.seconds is None:
        args.seconds = scale.seconds
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    preflight()
    args.calibration_s = calibrate()
    print(f"bench.calibration_s {args.calibration_s:.4f} s  (fixed pure-Python loop)")
    made_root = not os.path.isdir(args.data_root)
    os.makedirs(args.data_root, exist_ok=True)
    print(
        f"storage: OSStorage under {args.data_root} — latencies are this "
        "sandbox's file system and page cache, not a device's"
    )
    engine = W.engine_options(scale, 0)
    del engine["block_cache_entries"]  # per workload, printed with it
    print(
        f"scale {scale.name}: {args.seconds:g} s windows, counts fixed before the "
        f"window from --seed, closed loop; engine {json.dumps(engine)}, "
        f"procedure pcp, sub-tasks {W.subtask_bytes(scale)} B"
    )

    ok = True
    reports = {}
    try:
        for name in [args.workload] if args.workload else W.WORKLOADS:
            out, reports[name] = run_one(name, args, scale, bench)
            ok = ok and out["correct"]
            print(json.dumps(out))
        if args.report:
            with open(args.report, "w") as f:
                json.dump(reports, f, indent=1)
    finally:
        if made_root and not os.listdir(args.data_root):
            os.rmdir(args.data_root)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
