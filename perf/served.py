"""Served workloads: server process, closed-loop load, checks, metrics.

The server runs in its own process (``perf/serve.py``); this process is
the load generator.  The loop is closed — each connection sends its next
request when the previous reply has arrived, because the callers of a
KV store are application threads that wait — with one thread and one
``SyncClient`` per connection.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro import DB, Options, OSStorage, ProcedureSpec
from repro.server import SyncClient
from repro.server import protocol as P
from repro.server.client import ClientError

import workloads as W
from bootstrap import PERF_DIR

SERVE_PY = os.path.join(PERF_DIR, "serve.py")
LOAD_BATCH = 100
PING_SAMPLES = 200
_OPCODES = (P.OP_GET, P.OP_PUT, P.OP_SCAN)


class Server:
    """One ``perf/serve.py`` child on a fresh directory; always reaped."""

    def __init__(self, data_root: str, options: dict, subtask: int, cpu: int) -> None:
        self.options = options
        self.subtask = subtask
        self.dir = tempfile.mkdtemp(prefix="db-", dir=data_root)
        self.proc = subprocess.Popen(
            [
                sys.executable,
                SERVE_PY,
                "--dir", self.dir,
                "--options", json.dumps(options),
                "--subtask-bytes", str(subtask),
            ],
            stdout=subprocess.PIPE,
        )
        try:
            # Still single-threaded (importing); its threads inherit this.
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.port = self._read_port(timeout=60.0)
        except BaseException:
            self.close()
            raise

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not report a port (got {line!r})")
        return int(line.rsplit(":", 1)[1])

    def connect(self) -> SyncClient:
        return SyncClient("127.0.0.1", self.port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """SIGKILL and reap; the directory stays for a reopen."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()

    def close(self) -> None:
        self.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


def wait_idle(client: SyncClient, quiet_s: float, timeout: float = 120.0) -> dict:
    """Poll STATS until the engine's counters hold still for ``quiet_s``.

    A due compaction starts within the background thread's 0.1 s poll
    and moves the I/O counters every sub-task, so still counters mean
    no flush or compaction is running or pending.
    """
    deadline = time.monotonic() + timeout
    last, since = None, time.monotonic()
    while True:
        stats = client.stats()
        now = time.monotonic()
        sig = (stats["engine"]["counters"], stats["db"]["l0_files"])
        if sig != last:
            last, since = sig, now
        elif now - since >= quiet_s:
            return stats
        if now > deadline:
            raise RuntimeError("server did not go idle")
        time.sleep(0.05)


def _load(client: SyncClient, spec: W.Served, records, quiet_s: float) -> None:
    for i in range(0, len(records), LOAD_BATCH):
        client.batch([("put", k, v) for k, v in records[i : i + LOAD_BATCH]])
    client.flush()
    if spec.compact_after_load:
        client.compact()
    wait_idle(client, quiet_s)


class _Conn:
    """One connection's slice of the run: its ops, samples and failures."""

    def __init__(self, client: SyncClient, ops: list[tuple], warm: int) -> None:
        self.client = client
        self.ops = ops
        self.warm = warm
        self.lat: tuple[list, list, list] = ([], [], [])  # timed, per kind
        self.failed: list[int] = []  # indices into ops
        self.start = self.end = 0.0

    def run(self, ops_range, timed: bool, trace, request_base: int) -> None:
        client, lat, failed = self.client, self.lat, self.failed
        clock = time.perf_counter
        for i in ops_range:
            kind, key, value, expected = self.ops[i]
            try:
                if trace is None:
                    t0 = clock()
                    reply = _call(client, kind, key, value)
                    t1 = clock()
                else:
                    t0, t1, reply = _traced_op(
                        trace, client, request_base + i, kind, key, value
                    )
            except (ClientError, OSError):
                failed.append(i)
                continue
            if (kind == W.GET and reply != expected) or (
                kind == W.SCAN and not W.scan_ok(key, reply)
            ):
                failed.append(i)
            elif timed:
                # Only a checked reply has a latency: a failed request
                # counts as missing every percentile and ops_s.
                lat[kind].append(t1 - t0)


def _call(client: SyncClient, kind: int, key: bytes, value):
    if kind == W.GET:
        return client.get(key)
    if kind == W.PUT:
        return client.put(key, value)
    return client.scan(key, None, W.SCAN_LIMIT)[0]


def _traced_op(trace, client, request, kind, key, value):
    """One request with spans around the calls the harness can see.

    ``server.rtt.*`` is the ``SyncClient`` call; ``server.codec.*`` runs
    the four frame passes a request costs (encode + decode of request
    and response) on this request's own bytes.  The response encode is
    the one pass the server times inside its handler, so it gets a span
    of its own.
    """
    name = W.KIND_NAMES[kind]
    with trace.span("client.op", request):
        with trace.span("server.rtt." + name) as rtt:
            reply = _call(client, kind, key, value)
        with trace.span("server.codec." + name):
            if kind == W.GET:
                body, rbody = P.encode_lp(key), P.encode_lp(reply or b"")
            elif kind == W.PUT:
                body, rbody = P.encode_lp(key) + P.encode_lp(value), b""
            else:
                body = P.encode_scan_body(key, None, W.SCAN_LIMIT, False)
                rbody = P.encode_scan_result(reply, False)
            _codec_passes(trace, name, _OPCODES[kind], request, body, rbody)
    return rtt[1], rtt[2], reply


def _codec_passes(trace, name, opcode, request, body, rbody) -> None:
    frame = P.encode_request(opcode, request, body)
    P.decode_request(P.decode_frame(P.frame_length(frame[:4]), frame[4:]))
    with trace.span("server.respenc." + name):
        rframe = P.encode_response(P.ST_OK, request, rbody)
    P.decode_response(P.decode_frame(P.frame_length(rframe[:4]), rframe[4:]))


def _traced_pings(trace, client: SyncClient) -> None:
    for i in range(PING_SAMPLES):
        with trace.span("client.ping", -1 - i):
            with trace.span("server.rtt.ping"):
                client.ping()
            with trace.span("server.codec.ping"):
                _codec_passes(trace, "ping", P.OP_PING, i, b"", b"")


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def _reopen_check(server: Server, acked: dict[bytes, bytes]) -> dict:
    """After SIGKILL: reopen in-process; every acked put must read back."""
    wal_bytes = sum(
        os.path.getsize(os.path.join(server.dir, n))
        for n in os.listdir(server.dir)
        if n.endswith(".log")
    )
    t0 = time.perf_counter()
    db = DB(
        OSStorage(server.dir),
        Options(**server.options),
        compaction_spec=ProcedureSpec.pcp(subtask_bytes=server.subtask),
    )
    reopen_s = time.perf_counter() - t0
    try:
        bad = sum(1 for key, value in acked.items() if db.get(key) != value)
    finally:
        db.close()
    return {
        "reopen_s": reopen_s,
        "wal_bytes": wal_bytes,
        "checked": len(acked),
        "bad": bad,
    }


def _teardown(server: Server, conns: list[_Conn]) -> None:
    for conn in conns:
        conn.client.close()
    server.close()


def _setup(spec, scale, records, streams, warm, data_root, server_cpu):
    """Server start + load + quiesce + warm-up + quiesce; returns what the window needs."""
    t0 = time.perf_counter()
    server = Server(
        data_root,
        W.engine_options(scale, spec.cache_entries),
        W.subtask_bytes(scale),
        server_cpu,
    )
    conns: list[_Conn] = []
    try:
        for ops in streams:
            conns.append(_Conn(server.connect(), ops, warm))
        _load(conns[0].client, spec, records, scale.quiet_s)
        _run_threads(conns, lambda c: c.run(range(c.warm), False, None, 0))
        # Warm-up PUTs may have started a flush or a compaction; every
        # window starts from an idle server.
        wait_idle(conns[0].client, scale.quiet_s)
    except BaseException:
        _teardown(server, conns)
        raise
    return server, conns, time.perf_counter() - t0


def _run_threads(conns: list[_Conn], target) -> None:
    threads = [threading.Thread(target=target, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_served(
    spec: W.Served, scale: W.Scale, seed: int, data_root: str, trace=None
) -> dict:
    """One run of a served workload; ``spec`` is already sized.

    The server is pinned to the last CPU this process may use and the
    load generator to the first.  Left to the scheduler, the two end up
    on one CPU in some runs and on two in others, and a wake-up across
    virtual CPUs costs enough to move throughput by 20 % between runs.
    """
    records = W.load_records(spec, seed)
    streams, warm = W.op_streams(spec, seed, W.warmup_ops(scale))
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        server, conns, setup_s = _setup(
            spec, scale, records, streams, warm, data_root, cpus[-1]
        )
        try:
            result = _window(spec, scale, server, conns, trace, records)
        finally:
            _teardown(server, conns)
    finally:
        os.sched_setaffinity(0, allowed)
    result["setup_s"] = setup_s
    result["options"] = server.options
    result["records"] = records
    return result


def _window(spec, scale, server, conns, trace, records) -> dict:
    control = conns[0].client
    if trace is not None:
        _traced_pings(trace, control)
    before = control.stats()
    go = threading.Barrier(len(conns))

    def timed(conn: _Conn) -> None:
        go.wait()
        conn.start = time.perf_counter()
        base = conns.index(conn) * 10_000_000
        conn.run(range(conn.warm, len(conn.ops)), True, trace, base)
        conn.end = time.perf_counter()

    cpu0 = time.process_time()
    _run_threads(conns, timed)
    cpu1 = time.process_time()
    after = wait_idle(control, scale.quiet_s)
    rss = server.peak_rss_mb()
    disk_bytes = _dir_bytes(server.dir)

    window_s = max(c.end for c in conns) - min(c.start for c in conns)
    attempted = sum(len(c.ops) for c in conns)
    failed = sum(len(c.failed) for c in conns)
    lat = [sorted(l for c in conns for l in c.lat[kind]) for kind in range(3)]

    # Last acked value per key: load, then every put that was not refused.
    acked = dict(records)
    put_bytes = 0
    for c in conns:
        refused = set(c.failed)
        for i, (kind, key, value, _) in enumerate(c.ops):
            if kind == W.PUT and i not in refused:
                acked[key] = value
                if i >= c.warm:
                    put_bytes += len(key) + len(value)

    server.kill()
    reopen = None
    if spec.mix[W.PUT] > 0:
        reopen = _reopen_check(server, acked)
        attempted += reopen["checked"]
        failed += reopen["bad"]

    return {
        "workload": spec.name,
        "connections": len(conns),
        "attempted": attempted,
        "failed": failed,
        "completed": sum(len(v) for v in lat),
        "window_s": window_s,
        "latencies": lat,
        "before": before,
        "after": after,
        "peak_rss_mb": rss,
        "disk_bytes": disk_bytes,
        "live_bytes": sum(len(k) + len(v) for k, v in records),
        "put_bytes": put_bytes,
        "reopen": reopen,
        "loadgen_cpu_s": cpu1 - cpu0,
        "stall_retries": sum(c.client.stall_retries for c in conns),
    }
