"""End-to-end metrics: the issue's fourteen and the five the driver gates on.

``REPORT`` is what a run prints for a person: each metric on the
workloads where it means something (a PUT latency on a workload with no
PUTs does not exist).

``BENCHMARK.json`` lists what the driver gates on, and the driver wants
every one of its end-to-end metrics from every workload, never zero —
so the gate is the part of ``REPORT`` that is defined everywhere
(``setup_s``, ``peak_rss_mb``) plus three names whose definition extends
to all four workloads, each one number of one thing, never a pooled
score:

``ops_s``      completed requests per second; on ``compact``, 4 KB input
               blocks per second of SCP (block count over the median
               SCP wall).
``latency_ms`` the one latency the workload exists to show
               (``GATE_LATENCY``): the median GET on ``read-cached`` and
               ``mixed-large``; on ``write-heavy`` the 98th percentile
               of PUT, a put that waits for a flush (the slowest 3 % of
               puts all do, so p97 and p98 sit on that plateau; p99 sits
               on the edge of the next one, a flush that also waits for
               a compaction, and jumps 35 -> 45 ms between runs); on
               ``compact`` the operation is one ``compact_tables`` call
               under PCP, the paper's procedure and the server's: its
               median wall.
``space_amp``  bytes on disk after drain over live key+value bytes; on
               ``compact``, output table bytes over the merged entries'.

Each number has one bound.  A gated metric's is in ``BENCHMARK.json``
and nowhere else; a named metric that a gate name carries on some
workload (``CARRIED_BY``) takes that one; ``NAMED_BOUNDS`` holds the
rest.  There ``None`` marks a metric whose run-to-run spread could not
be held within 15 % on the reference box: it is reported but, as the
issue rules, not judged.
"""

from __future__ import annotations

import statistics

import workloads as W
from served import percentile

# name -> (unit, better, workloads it is reported on)
_SERVED = ("write-heavy", "read-cached", "mixed-large")
_WRITERS = ("write-heavy", "mixed-large")
_READERS = ("read-cached", "mixed-large")
REPORT = {
    "setup_s": ("s", "lower", W.WORKLOADS),
    "ops_s": ("1/s", "higher", _SERVED),
    "put_p50_ms": ("ms", "lower", _WRITERS),
    "put_p99_ms": ("ms", "lower", _WRITERS),
    "get_p50_ms": ("ms", "lower", _READERS),
    "get_p99_ms": ("ms", "lower", _READERS),
    "scan_p50_ms": ("ms", "lower", ("mixed-large",)),
    "scan_p95_ms": ("ms", "lower", ("mixed-large",)),
    "write_amp": ("ratio", "lower", _WRITERS),
    "space_amp": ("ratio", "lower", _WRITERS),
    "compact_scp_mb_s": ("MB/s", "higher", ("compact",)),
    "compact_pcp_mb_s": ("MB/s", "higher", ("compact",)),
    "compact_cppcp_mb_s": ("MB/s", "higher", ("compact",)),
    "peak_rss_mb": ("MB", "lower", W.WORKLOADS),
}

#: (request type, percentile) that ``latency_ms`` is on each served workload.
GATE_LATENCY = {
    "write-heavy": ("put", 98),
    "read-cached": ("get", 50),
    "mixed-large": ("get", 50),
}

#: Named metrics that a gate name carries on some workload.  One number
#: has one bound: they take the gate name's bound from BENCHMARK.json.
CARRIED_BY = {
    "get_p50_ms": "latency_ms",
    "compact_scp_mb_s": "ops_s",
    "compact_pcp_mb_s": "latency_ms",
}

#: Bounds of the named metrics the gate does not carry.
NAMED_BOUNDS = {
    "put_p50_ms": None,
    "put_p99_ms": None,
    "get_p99_ms": None,
    "scan_p50_ms": 0.15,
    "scan_p95_ms": None,
    "write_amp": 0.05,
    "compact_cppcp_mb_s": None,
}


def bounds(bench: dict) -> dict[str, tuple[str, float | None]]:
    """name -> (better, bound): the gate's from BENCHMARK.json, then the rest."""
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for name, gate_name in CARRIED_BY.items():
        out[name] = (REPORT[name][1], out[gate_name][1])
    for name, bound in NAMED_BOUNDS.items():
        out[name] = (REPORT[name][1], bound)
    if len(out) != len(bench["end_to_end"]) + len(CARRIED_BY) + len(NAMED_BOUNDS):
        raise SystemExit("perf: a metric has a bound in two places")
    return out


def served_report(result: dict) -> tuple[dict[str, float], dict[str, int]]:
    """The named metrics of one served run and the sample count behind each."""
    lat = dict(zip(W.KIND_NAMES, result["latencies"]))
    values = {
        "setup_s": result["setup_s"],
        "ops_s": result["completed"] / result["window_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {"ops_s": result["completed"]}
    for kind, tail in (("put", 99), ("get", 99), ("scan", 95)):
        if lat[kind]:
            values[f"{kind}_p50_ms"] = percentile(lat[kind], 50) * 1e3
            values[f"{kind}_p{tail}_ms"] = percentile(lat[kind], tail) * 1e3
            samples[f"{kind}_p50_ms"] = samples[f"{kind}_p{tail}_ms"] = len(lat[kind])
    if result["put_bytes"]:
        written = (
            result["after"]["engine"]["counters"]["io.os.write.bytes"]
            - result["before"]["engine"]["counters"]["io.os.write.bytes"]
        )
        values["write_amp"] = written / result["put_bytes"]
        values["space_amp"] = result["disk_bytes"] / result["live_bytes"]
    return values, samples


def compact_report(result: dict) -> tuple[dict[str, float], dict[str, int]]:
    mb = result["input_bytes"] / 1e6
    values = {
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {}
    for proc, walls in result["walls"].items():
        values[f"compact_{proc}_mb_s"] = mb / statistics.median(walls)
        samples[f"compact_{proc}_mb_s"] = len(walls)
    return values, samples


def gate(result: dict, report: dict[str, float]) -> dict[str, float]:
    """The five metrics every workload reports (see the module docstring)."""
    if result["workload"] == "compact":
        walls = result["walls"]
        ops_s = result["input_blocks"] / statistics.median(walls["scp"])
        latency_ms = statistics.median(walls["pcp"]) * 1e3
        space = result["output_bytes"] / result["live_bytes"]
    else:
        ops_s = report["ops_s"]
        kind, q = GATE_LATENCY[result["workload"]]
        latency_ms = percentile(result["latencies"][W.KIND_NAMES.index(kind)], q) * 1e3
        space = result["disk_bytes"] / result["live_bytes"]
    return {
        "setup_s": report["setup_s"],
        "ops_s": ops_s,
        "latency_ms": latency_ms,
        "peak_rss_mb": report["peak_rss_mb"],
        "space_amp": space,
    }
