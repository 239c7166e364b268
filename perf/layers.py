"""Per-layer numbers of the traced run.

Times are medians of the benchmark's own spans around public calls, on
payloads taken from the workload's data (a 4 KB data block of its
records, a frame of its request size).  Counts are deltas of what the
program already exports (``STATS`` / the metrics registry) over the
timed window.  Every value is keyed by the name it has in
``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import tempfile

from repro import DB, Options, OSStorage, ProcedureSpec, WriteBatch
from repro.codec import (
    crc32,
    crc32c,
    decode_varint64,
    encode_varint64,
    lz77_compress,
    lz77_decompress,
)
from repro.lsm import (
    KIND_VALUE,
    Block,
    BlockBuilder,
    BloomFilter,
    BloomFilterBuilder,
    LogWriter,
    MemTable,
    Table,
    TableBuilder,
    encode_internal_key,
    internal_compare,
    lookup_key,
)
from repro.lsm.ikey import MAX_SEQUENCE
from repro.server import protocol as P

import workloads as W
from compact import equation_efficiency
from served import LOAD_BATCH

BLOCK_BYTES = 4096
_BUCKET_RATIO = 10 ** (1 / 24)  # the registry's latency histograms: 24 buckets per decade
_VARINTS = [1, 127, 300, 65_535, 1 << 21, 1 << 35, 1 << 49, (1 << 63) - 1]


def _timed(trace, name: str, fn, spans: int, calls: int = 1) -> float:
    """Median microseconds per call of ``fn`` over ``spans`` spans of ``calls``."""
    for _ in range(spans):
        with trace.span(name):
            for _ in range(calls):
                fn()
    return trace.median_us(name) / calls


def _block_of(records) -> tuple[bytes, list[tuple[bytes, bytes]]]:
    """A ~4 KB data block of the workload's own records, as the engine builds it."""
    builder = BlockBuilder(16, compare=internal_compare)
    entries = []
    for seq, (key, value) in enumerate(records, 1):
        ikey = encode_internal_key(key, seq, KIND_VALUE)
        builder.add(ikey, value)
        entries.append((ikey, value))
        if builder.current_size_estimate() >= BLOCK_BYTES:
            break
    return builder.finish(), entries


def micro(trace, records, data_root: str) -> dict[str, float]:
    """codec, lsm and devices primitives on the workload's payloads."""
    out: dict[str, float] = {}
    raw, entries = _block_of(records)
    packed = lz77_compress(raw)

    out["codec.crc32c_4k_us"] = _timed(trace, "codec.crc32c_4k", lambda: crc32c(raw), 15)
    out["codec.crc32_4k_us"] = _timed(trace, "codec.crc32_4k", lambda: crc32(raw), 15, 50)
    out["codec.lz77_compress_4k_us"] = _timed(
        trace, "codec.lz77_compress_4k", lambda: lz77_compress(raw), 9
    )
    out["codec.lz77_decompress_4k_us"] = _timed(
        trace, "codec.lz77_decompress_4k", lambda: lz77_decompress(packed), 9
    )
    out["codec.lz77_ratio"] = len(packed) / len(raw)
    out["codec.varint_roundtrip_us"] = _timed(
        trace,
        "codec.varint_roundtrip",
        lambda: [decode_varint64(encode_varint64(v)) for v in _VARINTS],
        15,
        20,
    ) / len(_VARINTS)

    def build() -> None:
        b = BlockBuilder(16, compare=internal_compare)
        for ikey, value in entries:
            b.add(ikey, value)
        b.finish()

    out["lsm.block_build_us"] = _timed(trace, "lsm.block_build", build, 15)
    out["lsm.block_iter_us"] = _timed(
        trace, "lsm.block_iter", lambda: list(Block(raw, compare=internal_compare)), 15
    )

    sample = records[:256]
    mem = MemTable()
    seq = itertools.count(1)
    with trace.span("lsm.memtable_put"):
        for key, value in sample:
            mem.add(next(seq), KIND_VALUE, key, value)
    out["lsm.memtable_put_us"] = trace.median_us("lsm.memtable_put") / len(sample)
    with trace.span("lsm.memtable_get"):
        for key, _ in sample:
            mem.get(key)
    out["lsm.memtable_get_us"] = trace.median_us("lsm.memtable_get") / len(sample)

    bloom = BloomFilterBuilder(10)
    for key, _ in sample:
        bloom.add(key)
    probe = BloomFilter(bloom.finish())
    out["lsm.bloom_check_us"] = _timed(
        trace, "lsm.bloom_check", lambda: [probe.may_contain(k) for k, _ in sample], 9
    ) / len(sample)

    workdir = tempfile.mkdtemp(prefix="micro-", dir=data_root)
    try:
        storage = OSStorage(workdir)
        out.update(_storage_micro(trace, storage, sample, raw))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def _storage_micro(trace, storage, sample, raw) -> dict[str, float]:
    out: dict[str, float] = {}
    record = WriteBatch().put(*sample[0]).encode(1)
    wal = LogWriter(storage.create("wal.log"))

    def append_sync() -> None:
        wal.add_record(record)
        wal.sync()

    out["lsm.wal_append_sync_us"] = _timed(trace, "lsm.wal_append_sync", append_sync, 50)
    wal.close()

    options = Options(block_bytes=BLOCK_BYTES, compression="lz77", checksum="crc32")
    with storage.create("000001.sst") as f:
        builder = TableBuilder(f, options)
        for key, value in sample:
            builder.add(encode_internal_key(key, 1, KIND_VALUE), value)
        builder.finish()
    table = Table(storage.open("000001.sst"), options)  # no cache: every get loads
    probes = itertools.cycle(lookup_key(k, MAX_SEQUENCE) for k, _ in sample)
    out["lsm.table_get_miss_us"] = _timed(
        trace, "lsm.table_get_miss", lambda: table.get(next(probes)), 30
    )
    table.close()

    with storage.create("dev.bin") as dev:
        out["devices.append_4k_us"] = _timed(
            trace, "devices.append_4k", lambda: dev.append(raw), 50
        )
        out["devices.sync_us"] = _timed(trace, "devices.sync", dev.sync, 50)
    with storage.open("dev.bin") as dev:
        offsets = itertools.cycle(range(0, 40 * len(raw), len(raw)))
        out["devices.pread_4k_us"] = _timed(
            trace, "devices.pread_4k", lambda: dev.pread(next(offsets), len(raw)), 50
        )
    return out


def frame_micro(trace, records) -> dict[str, float]:
    """Frame encode / decode on a PUT payload of the workload's size."""
    key, value = records[0]
    payload = bytes([P.OP_PUT]) + P.encode_varint64(7) + P.encode_lp(key) + P.encode_lp(value)
    frame = P.encode_frame(payload)
    return {
        "server.frame_encode_us": _timed(
            trace, "server.frame_encode", lambda: P.encode_frame(payload), 30
        ),
        "server.frame_decode_us": _timed(
            trace,
            "server.frame_decode",
            lambda: P.decode_frame(P.frame_length(frame[:4]), frame[4:]),
            30,
        ),
    }


# ----------------------------------------------------------- STATS deltas
def _counter_delta(before: dict, after: dict) -> dict[str, float]:
    b, a = before["engine"]["counters"], after["engine"]["counters"]
    return {k: a[k] - b.get(k, 0) for k in a}


def _hist_delta(before: dict | None, after: dict | None, ms: bool) -> dict:
    """Count, sum, p50 and max of the samples a histogram gained.

    Snapshots carry cumulative counts at occupied bucket edges, so the
    window's samples are the per-bucket differences.  Buckets are 24
    per decade; p50 is interpolated inside its bucket by rank, max is
    the top occupied bucket's edge (or the recorded max).  Seconds out.
    """
    sfx, unit = ("_ms", 1e-3) if ms else ("", 1.0)
    if not after or not after.get("count"):
        return {"count": 0, "sum": 0.0, "p50": 0.0, "max": 0.0}

    def per_bucket(snap) -> dict[float, int]:
        counts, prev = {}, 0
        for edge, cum in (snap or {}).get("buckets" + sfx, []):
            counts[edge] = cum - prev
            prev = cum
        return counts

    old = per_bucket(before)
    gained = sorted(
        (edge, n - old.get(edge, 0)) for edge, n in per_bucket(after).items()
    )
    gained = [(edge, n) for edge, n in gained if n > 0]
    count = sum(n for _, n in gained)
    if count == 0:
        return {"count": 0, "sum": 0.0, "p50": 0.0, "max": 0.0}
    half, seen, p50 = count / 2, 0, gained[-1][0]
    for edge, n in gained:
        if seen + n >= half:
            low = edge / _BUCKET_RATIO
            p50 = low * (edge / low) ** ((half - seen) / n)
            break
        seen += n
    total = after["sum" + sfx] - ((before or {}).get("sum" + sfx, 0.0))
    top = min(gained[-1][0], after["max" + sfx])
    return {"count": count, "sum": total * unit, "p50": p50 * unit, "max": top * unit}


def _op_delta(before: dict, after: dict, op: str) -> dict:
    """One opcode's gains between two ``stats["server"]["ops"]`` dicts."""
    b, a = before.get(op, {}), after.get(op, {})
    out = _hist_delta(b.get("latency"), a.get("latency"), ms=True)
    for field in ("errors", "bytes_in", "bytes_out"):
        out[field] = a.get(field, 0) - b.get(field, 0)
    return out


def _device_counts(c: dict) -> dict[str, float]:
    """``io.os.*`` counter deltas (MeteredStorage) under their per-layer names."""
    ops, nbytes = c.get("io.os.write.ops", 0), c.get("io.os.write.bytes", 0)
    return {
        "devices.write_ops": ops,
        "devices.write_bytes": nbytes,
        "devices.read_ops": c.get("io.os.read.ops", 0),
        "devices.read_bytes": c.get("io.os.read.bytes", 0),
        "devices.sync_ops": c.get("io.os.sync.ops", 0),
        "devices.bytes_per_write": nbytes / ops if ops else 0.0,
    }


def served_layers(result: dict, trace) -> tuple[dict[str, float], dict[str, float]]:
    """lsm, compaction, db, devices and server numbers of one traced window.

    Also returns the round-trip additivity gaps (see ``_additivity``).
    """
    before, after = result["before"], result["after"]
    c = _counter_delta(before, after)
    eh_b, eh_a = before["engine"]["histograms"], after["engine"]["histograms"]
    flush = _hist_delta(eh_b.get("db.flush_seconds"), eh_a.get("db.flush_seconds"), False)
    comp = _hist_delta(
        eh_b.get("compaction.seconds"), eh_a.get("compaction.seconds"), False
    )
    gets = after["db"]["gets"] - before["db"]["gets"]
    lookups = c.get("cache.hits", 0) + c.get("cache.misses", 0)
    ops_b, ops_a = before["server"]["ops"], after["server"]["ops"]
    ops = {op: _op_delta(ops_b, ops_a, op) for op in ("GET", "PUT", "SCAN")}
    # The traced PINGs run before the window's first STATS snapshot.
    ops["PING"] = _op_delta({}, ops_a, "PING")

    out = {
        "lsm.cache_hit_rate": c.get("cache.hits", 0) / lookups if lookups else 0.0,
        "lsm.cache_evictions": c.get("cache.evictions", 0),
        "lsm.blocks_per_get": lookups / gets if gets else 0.0,
        "lsm.wal_bytes": c.get("wal.bytes", 0),
        "lsm.wal_syncs": c.get("wal.syncs", 0),
        "compaction.count": c.get("compaction.count", 0),
        "compaction.trivial_moves": c.get("compaction.trivial_moves", 0),
        "compaction.input_bytes": c.get("compaction.input_bytes", 0),
        "compaction.output_bytes": c.get("compaction.output_bytes", 0),
        "compaction.busy_s": comp["sum"],
        "compaction.mb_s": (
            c.get("compaction.input_bytes", 0) / 1e6 / comp["sum"] if comp["sum"] else 0.0
        ),
        "db.flushes": c.get("db.flushes", 0),
        "db.flush_busy_s": flush["sum"],
        "db.flush_max_ms": flush["max"] * 1e3,
        "db.write_stalls": c.get("db.write_stalls", 0),
        "db.put_max_ms": ops["PUT"]["max"] * 1e3,
        **_device_counts(c),
        "server.stall_rejections": after["server"]["stall_rejections"]
        - before["server"]["stall_rejections"],
        "server.errors": sum(o["errors"] for o in ops.values()),
        "server.bytes_in": sum(o["bytes_in"] for o in ops.values()),
        "server.bytes_out": sum(o["bytes_out"] for o in ops.values()),
    }
    if result["reopen"] is not None:
        out["db.reopen_s"] = result["reopen"]["reopen_s"]
        out["db.reopen_wal_bytes"] = result["reopen"]["wal_bytes"]

    trips, residual = _round_trips(trace, ops)
    out.update(trips)
    main = _main_kind(trace)
    out["server.request_codec_us"] = trace.median_us("server.codec." + main)
    out["server.residual_us"] = residual[main]
    return out, _additivity(trips, residual)


def _main_kind(trace) -> str:
    """The request type the window sent most."""
    return max(
        W.KIND_NAMES, key=lambda kind: len(trace.durations("server.rtt." + kind))
    )


def _round_trips(trace, ops) -> tuple[dict[str, float], dict[str, float]]:
    """Per request type: rtt, the handler's share, and the residual.

    ``residual = rtt - handle - frame passes outside the handler`` is
    what is left for sockets and dispatch.  The response encode runs
    inside the handler's own timer, so it is not subtracted twice.
    """
    out, residual = {}, {}
    for kind in ("ping", *W.KIND_NAMES):
        rtt = trace.median_us("server.rtt." + kind)
        if not rtt:
            continue
        handle = ops[kind.upper()]["p50"] * 1e6
        outside = trace.median_us("server.codec." + kind) - trace.median_us(
            "server.respenc." + kind
        )
        out[f"server.{kind}_rtt_us"] = rtt
        if kind != "ping":
            out[f"server.handle_{kind}_us"] = handle
        residual[kind] = rtt - handle - outside
    return out, residual


def _additivity(trips: dict, residual: dict) -> dict[str, float]:
    """Is a round trip the handler + the frame passes + a fixed floor?

    PING does no engine work, so its residual is the socket-and-dispatch
    floor.  For each other request type the value is how far
    ``handle + frame passes + that floor`` is from the measured rtt, as
    a share of the rtt (medians throughout: the typical request).
    """
    return {
        kind: (residual["ping"] - residual[kind]) / trips[f"server.{kind}_rtt_us"]
        for kind in residual
        if kind != "ping"
    }


def compact_layers(result: dict, trace) -> dict[str, float]:
    out = {
        "core.partition_s": trace.total_s("core.partition"),
        "core.subtasks": result["subtasks"],
    }
    names = ("read", "checksum", "decompress", "merge", "compress", "rechecksum", "write")
    for i, step in enumerate(names, 1):
        out[f"core.s{i}_{step}_s"] = trace.total_s(f"core.s{i}")
    eff = equation_efficiency(result)
    for proc, runs in result["stages"].items():
        for stage in ("read", "compute", "write"):
            out[f"core.{proc}.{stage}_busy_s"] = statistics.median(
                r[stage] for r in runs
            )
        out[f"core.{proc}.eq_efficiency"] = eff[proc]
    out.update(_device_counts(result["io"]))
    return out


def steps_vs_scp(result: dict, trace) -> float:
    """(sum of the S1..S7 spans - SCP wall) / SCP wall."""
    steps = sum(trace.total_s(f"core.s{i}") for i in range(1, 8))
    scp = statistics.median(result["walls"]["scp"])
    return (steps - scp) / scp


def db_replay(trace, spec: W.Served, scale: W.Scale, seed: int, data_root: str) -> dict:
    """The same op stream against an in-process DB with identical options."""
    records = W.load_records(spec, seed)
    streams, warm = W.op_streams(spec, seed, W.warmup_ops(scale))
    workdir = tempfile.mkdtemp(prefix="replay-", dir=data_root)
    try:
        db = DB(
            OSStorage(workdir),
            Options(**W.engine_options(scale, spec.cache_entries)),
            compaction_spec=ProcedureSpec.pcp(subtask_bytes=W.subtask_bytes(scale)),
            background=True,
        )
        try:
            for i in range(0, len(records), LOAD_BATCH):
                batch = WriteBatch()
                for key, value in records[i : i + LOAD_BATCH]:
                    batch.put(key, value)
                db.write(batch)
            db.flush()
            if spec.compact_after_load:
                db.compact_range()
            db.wait_for_compactions()
            for ops in streams:
                for i, (kind, key, value, _) in enumerate(ops):
                    if i < warm:
                        _db_op(db, kind, key, value)
                        continue
                    with trace.span("db.op." + W.KIND_NAMES[kind]):
                        _db_op(db, kind, key, value)
        finally:
            db.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "db.get_us": trace.median_us("db.op.get"),
        "db.put_us": trace.median_us("db.op.put"),
        "db.scan20_us": trace.median_us("db.op.scan"),
    }


def _db_op(db: DB, kind: int, key: bytes, value) -> None:
    if kind == W.GET:
        db.get(key)
    elif kind == W.PUT:
        db.put(key, value)
    else:
        list(itertools.islice(db.scan(key), W.SCAN_LIMIT))
