"""The ``compact`` workload: the paper's own experiment on the real engine.

In-process, no server.  Two input tables of the paper's section IV-A
shape (16 B keys + 100 B values) are built on ``OSStorage``: the upper
run holds every key in ``[0, n)``, the lower run the even keys in
``[0, 2n)``, so half of the lower run's blocks interleave with the
upper run and half overlap nothing.  ``compact_tables`` then merges
them under SCP, PCP and C-PPCP(k=2, process backend), three repeats
each, interleaved, and every output is compared with the SCP result.
"""

from __future__ import annotations

import contextlib
import itertools
import resource
import shutil
import statistics
import tempfile
import time

from repro import Options, OSStorage, ProcedureSpec
from repro.core import StageTimes, compact_tables, partition_subtasks
from repro.core import cppcp_bandwidth, pcp_bandwidth, scp_bandwidth
from repro.core import steps
from repro.codec import get_checksummer, get_codec
from repro.devices import MeteredStorage
from repro.lsm import KIND_VALUE, Table, TableBuilder, encode_internal_key
from repro.lsm.table_sink import TableSink
from repro.obs import MetricsRegistry
from repro.workload import format_key

import workloads as W

REPEATS = 3
CPPCP_K = 2


def procedures(scale: W.Scale) -> dict[str, ProcedureSpec]:
    sub = W.subtask_bytes(scale)
    return {
        "scp": ProcedureSpec.scp(subtask_bytes=sub),
        "pcp": ProcedureSpec.pcp(subtask_bytes=sub),
        "cppcp": ProcedureSpec.cppcp(CPPCP_K, subtask_bytes=sub, backend="process"),
    }


def _options(scale: W.Scale) -> Options:
    engine = W.engine_options(scale, cache_entries=0)
    engine["compaction_policy"] = None  # no DB, no policy
    return Options(**engine)


def _inputs(n: int, seed: int):
    """(upper entries, lower entries, expected merge) as internal-key pairs."""
    values = W.Values(W.COMPACT_VALUE_BYTES, seed)
    upper = [
        (encode_internal_key(format_key(i), 2, KIND_VALUE), values.make(i, 1))
        for i in range(n)
    ]
    lower = [
        (encode_internal_key(format_key(i), 1, KIND_VALUE), values.make(i, 0))
        for i in range(0, 2 * n, 2)
    ]
    # Newest wins: the upper run shadows the lower run's keys below n.
    expected = upper + lower[(n + 1) // 2 :]
    return upper, lower, expected


def _build(storage, options, name: str, entries) -> Table:
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for ikey, value in entries:
            builder.add(ikey, value)
        builder.finish()
        f.sync()
    return Table(storage.open(name), options)


def _table_entries(storage, options, names) -> list[tuple[bytes, bytes]]:
    out = []
    for name in names:
        table = Table(storage.open(name), options)
        out.extend(table)
        table.close()
    return out


def _file_bytes(storage, names) -> list[bytes]:
    blobs = []
    for name in names:
        with storage.open(name) as f:
            blobs.append(f.read_all())
    return blobs


def _self_and_children_rss_mb() -> float:
    with open("/proc/self/status") as f:
        own = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
    # ru_maxrss of RUSAGE_CHILDREN is the largest reaped child: one
    # worker of the C-PPCP process pool.
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_compact(
    scale: W.Scale, seed: int, seconds: float, data_root: str, trace=None
) -> dict:
    n = W.compact_keys(scale, seconds)
    options = _options(scale)
    upper_entries, lower_entries, expected = _inputs(n, seed)
    specs = procedures(scale)

    workdir = tempfile.mkdtemp(prefix="compact-", dir=data_root)
    try:
        t0 = time.perf_counter()
        raw = storage = OSStorage(workdir)
        registry = None
        if trace is not None:
            # Device counts for the traced run; checks read through
            # ``raw`` so they do not show up as compaction I/O.
            registry = MetricsRegistry()
            storage = MeteredStorage(raw, registry)
        tables = [
            _build(storage, options, "000001.sst", upper_entries),
            _build(storage, options, "000002.sst", lower_entries),
        ]
        setup_s = time.perf_counter() - t0
        result = _window(storage, raw, options, tables, specs, expected, trace, registry)
        if trace is not None:
            _replay_steps(trace, scale, tables, storage, options)
        for table in tables:
            table.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["records"] = [(ikey[:-8], value) for ikey, value in upper_entries[:256]]
    result["options"] = W.engine_options(scale, cache_entries=0)
    return result


def _window(storage, raw, options, tables, specs, expected, trace, registry) -> dict:
    numbers = itertools.count(100)
    input_bytes = sum(raw.file_size(f"{i:06d}.sst") for i in (1, 2))
    blocks = sum(t.num_blocks() for t in tables)
    walls: dict[str, list[float]] = {p: [] for p in specs}
    stages: dict[str, list[dict]] = {p: [] for p in specs}
    io_before = _io_counters(registry)
    reference = None
    failed = 0
    cpu0 = time.process_time()
    for _ in range(REPEATS):
        for proc, spec in specs.items():
            span = trace.span("core.compact." + proc) if trace else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                outputs, stats, subtasks = compact_tables(
                    tables, storage, options,
                    file_namer=lambda: f"{next(numbers):06d}.sst", spec=spec,
                )
            walls[proc].append(time.perf_counter() - t0)
            stages[proc].append(dict(stats.stage_seconds))
            names = [m.name for m in outputs]
            # The first SCP output is the reference and must itself be
            # the newest-wins merge of the two inputs; later outputs are
            # compared byte for byte, and entry for entry only if the
            # bytes differ (other blocking may hold the same entries).
            blobs = _file_bytes(raw, names)
            if blobs != reference:
                if _table_entries(raw, options, names) != expected:
                    failed += 1
                if reference is None:
                    reference = blobs
            for name in names:
                storage.delete(name)
    cpu1 = time.process_time()
    io_after = _io_counters(registry)
    return {
        "workload": "compact",
        "attempted": REPEATS * len(specs),
        "failed": failed,
        "walls": walls,
        "stages": stages,
        "window_s": sum(sum(w) for w in walls.values()),
        "input_bytes": input_bytes,
        "input_blocks": blocks,
        "subtasks": len(subtasks),
        "output_bytes": sum(len(b) for b in reference),
        "live_bytes": sum(len(k) - 8 + len(v) for k, v in expected),
        "peak_rss_mb": _self_and_children_rss_mb(),
        "loadgen_cpu_s": cpu1 - cpu0,
        "io": {k: io_after[k] - io_before[k] for k in io_after},
    }


def _io_counters(registry) -> dict[str, int]:
    if registry is None:
        return {}
    return dict(registry.snapshot()["counters"])


def _replay_steps(trace, scale: W.Scale, tables, storage, options) -> None:
    """S1..S7 one sub-task at a time, a span around each ``step_*`` call.

    This is SCP spelled out with the public step functions, so the sum
    of the seven spans should equal the SCP wall time.
    """
    numbers = itertools.count(900)
    codec = get_codec(options.compression)
    checksummer = get_checksummer(options.checksum)
    with trace.span("core.partition"):
        subtasks = partition_subtasks(tables, W.subtask_bytes(scale))
    sink = TableSink(storage, options, lambda: f"{next(numbers):06d}.sst")
    for sub in subtasks:
        with trace.span("core.s1"):
            stored = steps.step_read(
                [run.table.file for run in sub.runs],
                [run.handles for run in sub.runs],
            )
        with trace.span("core.s2"):
            steps.step_checksum(stored, checksummer)
        with trace.span("core.s3"):
            raw = steps.step_decompress(stored)
        with trace.span("core.s4"):
            merged = steps.step_merge(
                raw, sub.lower, sub.upper, options.block_bytes,
                options.block_restart_interval, n_sources=len(sub.runs),
            )
        with trace.span("core.s5"):
            compressed = steps.step_compress(merged, codec)
        with trace.span("core.s6"):
            encoded = steps.step_rechecksum(compressed, checksummer)
        with trace.span("core.s7"):
            steps.step_write(encoded, sink)
    with trace.span("core.s7"):
        outputs = sink.finish()
    for meta in outputs:
        storage.delete(meta.name)


def equation_efficiency(result: dict) -> dict[str, float]:
    """Achieved bandwidth over the Eq 1 / Eq 2 / Eq 6 bound.

    The bounds use SCP's stage times — the only ones measured without
    another stage competing for the interpreter.
    """
    scp = result["stages"]["scp"]
    st = StageTimes(
        *(statistics.median(s[k] for s in scp) for k in ("read", "compute", "write"))
    )
    size = result["input_bytes"]
    bounds = {
        "scp": scp_bandwidth(size, st),
        "pcp": pcp_bandwidth(size, st),
        "cppcp": cppcp_bandwidth(size, st, CPPCP_K),
    }
    return {
        proc: (size / statistics.median(result["walls"][proc])) / bounds[proc]
        for proc in bounds
    }
