"""Closed-loop network load generator: YCSB mixes over the socket.

The embedded benchmark (:mod:`repro.bench.runner`) measures
compaction effects *in-process* with a virtual clock.  This module measures them where a deployment
would: at the network edge.  ``run_net_benchmark`` starts a
:class:`repro.server.KVServer` over a real DB, fans a YCSB operation
mix (:class:`repro.workload.ycsb.YCSBWorkload`) out across N
closed-loop client connections — each connection is one thread with
one :class:`repro.server.SyncClient`, issuing its next operation only
after the previous one completed — and reports wall-clock throughput
plus the client-observed latency distribution.

Because the clients are closed-loop, an engine write pause surfaces
directly as tail latency (and as ``STALLED`` retries when the server
refuses writes during an L0 backup), which is exactly the paper's §I
claim made measurable end-to-end: run it once with
``ProcedureSpec.scp()`` and once with ``ProcedureSpec.pcp()`` and
compare p99.

Run from the command line::

    python -m repro.bench.netbench --mix a --ops 20000 --connections 4
"""

from __future__ import annotations

import argparse
import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.procedures import ProcedureSpec
from ..db.db import DB
from ..devices import MemStorage
from ..lsm.options import Options
from ..server.client import ServerBusyError, SyncClient
from ..obs import LatencyHistogram
from ..server.server import ServerConfig, ServerThread
from ..workload.ycsb import INSERT, RMW, UPDATE, YCSBWorkload

__all__ = [
    "NetBenchResult",
    "main",
    "run_net_benchmark",
    "run_obs_overhead",
    "run_replication_bench",
    "run_scaling",
]


@dataclass
class NetBenchResult:
    """Outcome of one networked YCSB run."""

    mix: str
    n_ops: int
    connections: int
    wall_seconds: float
    ops_per_second: float
    op_counts: dict[str, int]
    stall_retries: int
    #: client-observed per-op latency (all connections merged)
    latency: LatencyHistogram = field(repr=False)
    #: server-side STATS snapshot taken right before shutdown
    server_stats: dict = field(repr=False, default_factory=dict)
    #: engine shard count (1 = plain DB, >1 = repro.cluster.ShardedDB)
    shards: int = 1
    #: follower replicas attached to the primary (0 = no replication)
    replicas: int = 0
    #: the primary's write ack level (0, N, or -1 = majority)
    repl_acks: int = 0
    #: live Prometheus scrapes completed during the run phase
    scrapes: int = 0
    #: total exposition samples those scrapes parsed
    scrape_samples: int = 0
    #: spans the traced clients recorded (0 when tracing was off)
    client_spans: int = 0
    #: wire-level reconnect retries the clients performed (only > 0
    #: with a retry policy, e.g. under a lossy chaos proxy)
    client_retries: int = 0
    #: chaos-proxy injections by kind ({} when no net fault plan ran)
    net_faults: dict = field(default_factory=dict)

    def percentile_ms(self, p: float) -> float:
        return self.latency.percentile(p) * 1e3

    def per_shard_stats(self) -> list[dict]:
        """Per-shard rollup from the final STATS snapshot ([] for N=1)."""
        return self.server_stats.get("cluster", {}).get("shards", [])

    def summary(self) -> str:
        shard_note = f" shards={self.shards}" if self.shards > 1 else ""
        if self.replicas:
            acks = "majority" if self.repl_acks < 0 else self.repl_acks
            shard_note += f" replicas={self.replicas} acks={acks}"
        return (
            f"ycsb-{self.mix}: {self.n_ops} ops over "
            f"{self.connections} connections{shard_note} in "
            f"{self.wall_seconds:.2f}s "
            f"→ {self.ops_per_second:,.0f} ops/s | latency "
            f"p50={self.percentile_ms(50):.3f}ms "
            f"p95={self.percentile_ms(95):.3f}ms "
            f"p99={self.percentile_ms(99):.3f}ms "
            f"max={self.latency.vmax * 1e3:.1f}ms | "
            f"stall_retries={self.stall_retries}"
            + (
                f" | client_retries={self.client_retries} "
                f"net_faults={self.net_faults}"
                if self.net_faults
                else ""
            )
        )


def _drive(
    shard: YCSBWorkload,
    host: str,
    port: int,
    histogram: LatencyHistogram,
    counts: dict[str, int],
    lock: threading.Lock,
    errors: list,
    tracer=None,
    retry_policy=None,
) -> None:
    """One closed-loop connection: apply a workload shard, timing ops."""
    local_counts: dict[str, int] = {}
    local_lat: list[float] = []
    client = SyncClient(host, port, tracer=tracer, retry_policy=retry_policy)
    try:
        if tracer is not None:
            client.hello()  # trace ids go on the wire once hello is answered
        for op in shard:
            t0 = time.perf_counter()
            if op.kind in (UPDATE, INSERT):
                client.put(op.key, op.value)
            elif op.kind == RMW:
                client.get(op.key)
                client.put(op.key, op.value)
            else:
                client.get(op.key)
            local_lat.append(time.perf_counter() - t0)
            local_counts[op.kind] = local_counts.get(op.kind, 0) + 1
        stalls = client.stall_retries
    except (ServerBusyError, ConnectionError, OSError) as exc:
        errors.append(exc)
        stalls = client.stall_retries
    finally:
        client.close()
    with lock:
        for seconds in local_lat:
            histogram.record(seconds)
        for kind, n in local_counts.items():
            counts[kind] = counts.get(kind, 0) + n
        counts["_stall_retries"] = counts.get("_stall_retries", 0) + stalls
        counts["_client_retries"] = (
            counts.get("_client_retries", 0) + client.retries
        )


def run_net_benchmark(
    mix: str = "a",
    n_ops: int = 10000,
    record_count: int = 2000,
    value_bytes: int = 100,
    connections: int = 4,
    options: Optional[Options] = None,
    compaction_spec: Optional[ProcedureSpec] = None,
    seed: int = 0,
    shards: int = 1,
    replicas: int = 0,
    repl_acks: "int | str" = 0,
    obs=None,
    trace_clients: bool = False,
    scrape_interval_s: Optional[float] = None,
    net_fault_plan=None,
    retry_policy=None,
    distribution: str = "zipfian",
) -> NetBenchResult:
    """Load a keyspace, then run ``n_ops`` of YCSB mix ``mix`` through
    ``connections`` concurrent closed-loop socket clients.

    The server (and its in-memory DB, in background-compaction mode)
    lives for the duration of the call and is shut down gracefully
    afterwards.

    ``shards`` > 1 serves an in-memory
    :class:`repro.cluster.ShardedDB` instead of one DB (same wire
    protocol).

    ``replicas`` > 0 attaches that many in-memory loopback followers
    to the (single-shard) primary, and every write the clients issue
    must collect ``repl_acks`` follower acks (``"majority"`` = -1)
    before the server says OK — the knob the replication benchmark
    sweeps.

    Telemetry knobs (the obs-overhead benchmark sweeps these): ``obs``
    is an :class:`repro.obs.Observability` for the server DB (enabled
    tracer / event log), ``trace_clients`` gives every connection its
    own enabled tracer so each op carries a trace id end to end, and
    ``scrape_interval_s`` runs a live Prometheus scrape loop against
    the METRICS opcode for the whole run phase — telemetry measured
    under load, not at rest.

    ``net_fault_plan`` (a :class:`repro.devices.NetFaultPlan`) routes
    the run-phase client connections through a
    :class:`repro.devices.FaultyProxy` injecting the plan's faults;
    pair it with ``retry_policy`` (a
    :class:`repro.server.RetryPolicy`, applied to every run-phase
    client) so the load survives — the result then reports
    ``client_retries`` and the proxy's injection counts.  The load
    phase and followers bypass the proxy: the faults price the
    *serving* path.
    """
    workload = YCSBWorkload(
        mix, n_ops, record_count, value_bytes=value_bytes, seed=seed,
        distribution=distribution,
    )
    acks = -1 if repl_acks == "majority" else int(repl_acks)
    hub = None
    followers: list = []
    follower_servers: list[ServerThread] = []
    if replicas > 0 and shards > 1:
        raise ValueError("pass replicas or shards>1, not both")
    if shards > 1:
        from ..cluster import ShardedDB

        db = ShardedDB.in_memory(
            shards,
            options=options or Options(),
            compaction_spec=compaction_spec,
            background=True,
            **({"obs": obs} if obs is not None else {}),
        )
    else:
        opts = options or Options()
        if replicas > 0 and opts.wal_retain_bytes == 0:
            import dataclasses

            opts = dataclasses.replace(
                opts, wal_retain_bytes=8 * 1024 * 1024
            )
        db = DB(
            MemStorage(),
            opts,
            compaction_spec=compaction_spec,
            background=True,
            **({"obs": obs} if obs is not None else {}),
        )
    if replicas > 0:
        from ..replication import ReplicationHub

        hub = ReplicationHub(db)
    handle = ServerThread(db, ServerConfig(repl_acks=acks), hub=hub).start()
    if replicas > 0:
        from ..replication import Follower

        for i in range(replicas):
            fstorage = MemStorage()

            def _factory(fstorage=fstorage):
                return DB(fstorage, Options(), background=True)

            fdb = _factory()
            follower = Follower(
                fdb, fstorage, _factory,
                handle.host, handle.port, f"bench-f{i}",
            ).start()
            followers.append(follower)
            follower_servers.append(
                ServerThread(
                    fdb,
                    ServerConfig(read_only=True),
                    own_db=False,
                    follower=follower,
                ).start()
            )
    if replicas > 0:
        # Let every follower subscribe before the load phase, so
        # ack-gated writes never stall on an empty follower set.
        deadline = time.monotonic() + 10.0
        while hub.n_followers < replicas and time.monotonic() < deadline:
            time.sleep(0.01)
    proxy = None
    client_host, client_port = handle.host, handle.port
    if net_fault_plan is not None:
        from ..devices import FaultyProxy

        proxy = FaultyProxy(
            handle.host, handle.port, plan=net_fault_plan
        ).start()
        client_host, client_port = proxy.endpoint
    histogram = LatencyHistogram()
    counts: dict[str, int] = {}
    lock = threading.Lock()
    errors: list = []
    try:
        # Load phase over one connection (bulk, batched).
        loader = SyncClient(handle.host, handle.port)
        try:
            batch: list[tuple] = []
            for key, value in workload.load_phase():
                batch.append(("put", key, value))
                if len(batch) >= 256:
                    loader.batch(batch)
                    batch.clear()
            if batch:
                loader.batch(batch)
        finally:
            loader.close()

        client_tracer = None
        if trace_clients:
            from ..obs import Tracer

            client_tracer = Tracer(enabled=True)

        # Optional live scrape loop: a Prometheus pull against the
        # METRICS opcode every interval, concurrent with the load.
        scrape_stop = threading.Event()
        scrape_counts = {"scrapes": 0, "samples": 0}
        scraper = None
        if scrape_interval_s is not None:
            from ..obs import parse_prometheus

            def _scrape_loop() -> None:
                probe = SyncClient(handle.host, handle.port)
                try:
                    while not scrape_stop.is_set():
                        series = parse_prometheus(probe.metrics("prom"))
                        scrape_counts["scrapes"] += 1
                        scrape_counts["samples"] += sum(
                            len(s) for s in series.values()
                        )
                        scrape_stop.wait(scrape_interval_s)
                except (ConnectionError, OSError):
                    pass
                finally:
                    probe.close()

            scraper = threading.Thread(
                target=_scrape_loop, name="netbench-scrape", daemon=True
            )

        # Run phase: one thread + one connection per shard.
        threads = [
            threading.Thread(
                target=_drive,
                args=(shard, client_host, client_port, histogram, counts,
                      lock, errors, client_tracer, retry_policy),
                name=f"netbench-{i}",
            )
            for i, shard in enumerate(workload.split(connections))
        ]
        t0 = time.perf_counter()
        if scraper is not None:
            scraper.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        if scraper is not None:
            scrape_stop.set()
            scraper.join(timeout=5)

        probe = SyncClient(handle.host, handle.port)
        try:
            server_stats = probe.stats()
        finally:
            probe.close()
    finally:
        if proxy is not None:
            proxy.close()
        handle.stop()
        for server in follower_servers:
            server.stop()
        for follower in followers:
            follower.stop()
            follower.db.close()
    if errors:
        raise RuntimeError(f"{len(errors)} connection(s) failed: {errors[0]}")
    stall_retries = counts.pop("_stall_retries", 0)
    client_retries = counts.pop("_client_retries", 0)
    done = sum(counts.values())
    return NetBenchResult(
        mix=mix,
        n_ops=done,
        connections=connections,
        wall_seconds=wall,
        ops_per_second=done / wall if wall > 0 else 0.0,
        op_counts=counts,
        stall_retries=stall_retries,
        latency=histogram,
        server_stats=server_stats,
        shards=shards,
        replicas=replicas,
        repl_acks=acks,
        scrapes=scrape_counts["scrapes"],
        scrape_samples=scrape_counts["samples"],
        client_spans=len(client_tracer) if client_tracer is not None else 0,
        client_retries=client_retries,
        net_faults=dict(proxy.injected) if proxy is not None else {},
    )


def _sweep(benchmark: str, rows, ratio: Optional[str] = None, **header) -> dict:
    """Run one sweep; return its ``BENCH_*.json`` payload.

    Each row is ``(label, kwargs, extra)``: ``kwargs`` go to
    :func:`run_net_benchmark`, and the run's entry in ``runs`` holds
    ``label``, the figures every sweep records (throughput, wall time,
    latency percentiles, stall retries) and ``extra(result)``.  When
    ``ratio`` names a key, each entry also gets its throughput over
    the first run's under that key.  ``header`` fills the payload's
    top-level keys.
    """
    runs = []
    for label, kwargs, extra in rows:
        result = run_net_benchmark(**kwargs)
        runs.append(
            {
                **label,
                "ops_per_second": result.ops_per_second,
                "wall_seconds": result.wall_seconds,
                "p50_ms": result.percentile_ms(50),
                "p95_ms": result.percentile_ms(95),
                "p99_ms": result.percentile_ms(99),
                "stall_retries": result.stall_retries,
                **extra(result),
            }
        )
    if ratio is not None:
        base = runs[0]["ops_per_second"] or 1.0
        for entry in runs:
            entry[ratio] = entry["ops_per_second"] / base
    return {"benchmark": benchmark, **header, "runs": runs}


def _stall_bound_options() -> Options:
    """A deliberately stall-prone single-DB configuration.

    Tiny memtables and a low L0 stop trigger make one engine's write
    path bound by compaction backpressure (STALLED + client backoff),
    which is the regime sharding relieves: each shard takes 1/N of the
    inserts, so L0 backs up N× slower.  Used by the ``--scaling``
    sweep so the cluster speedup measures backpressure relief, not
    Python compute parallelism.
    """
    return Options(
        memtable_bytes=8 * 1024,
        sstable_bytes=8 * 1024,
        block_bytes=1024,
        level1_bytes=64 * 1024,
        level_multiplier=4,
        l0_compaction_trigger=2,
        l0_stop_writes_trigger=3,
    )


def run_scaling(
    shard_counts: list[int],
    mix: str = "a",
    n_ops: int = 4000,
    record_count: int = 1000,
    value_bytes: int = 100,
    connections: int = 4,
    compaction_spec: Optional[ProcedureSpec] = None,
    seed: int = 0,
) -> dict:
    """Run the same load at each shard count; return the scaling table.

    The single-shard baseline uses the stall-prone configuration (see
    :func:`_stall_bound_options`), every run keeps the identical
    workload/connection count, and the returned dict (the
    ``BENCH_cluster.json`` payload) records throughput, latency
    percentiles, stall retries, speedup vs the first entry, and each
    shard's own counts.
    """
    spec = compaction_spec or ProcedureSpec.cppcp(2, subtask_bytes=16 * 1024)
    load = dict(
        mix=mix, n_ops=n_ops, record_count=record_count,
        value_bytes=value_bytes, connections=connections, seed=seed,
        compaction_spec=spec,
    )

    def figures(result: NetBenchResult) -> dict:
        return {
            "write_stalls": result.server_stats.get("db", {}).get("write_stalls"),
            "per_shard": result.per_shard_stats(),
        }

    return _sweep(
        "netbench-cluster-scaling",
        [
            ({"shards": n}, dict(load, shards=n, options=_stall_bound_options()), figures)
            for n in shard_counts
        ],
        ratio="speedup_vs_first", mix=mix, n_ops=n_ops,
        record_count=record_count, connections=connections,
        procedure=spec.kind,
    )


def run_replication_bench(
    ack_levels: Optional[list] = None,
    replicas: int = 2,
    mix: str = "a",
    n_ops: int = 4000,
    record_count: int = 1000,
    value_bytes: int = 100,
    connections: int = 4,
    seed: int = 0,
) -> dict:
    """Sweep the write ack level over a 1-primary/N-follower loopback.

    The first run is the single-node baseline (no replication); then
    the identical workload repeats with ``replicas`` followers at each
    ack level.  The returned dict is the ``BENCH_replication.json``
    payload: throughput, latency percentiles, and stall retries per
    level — the measured price of each durability step (local only →
    1 follower → majority).
    """
    levels = ack_levels if ack_levels is not None else [0, 1, "majority"]
    load = dict(
        mix=mix, n_ops=n_ops, record_count=record_count,
        value_bytes=value_bytes, connections=connections, seed=seed,
    )

    def followers(result: NetBenchResult) -> dict:
        repl = result.server_stats.get("repl", {})
        return {"followers": repl.get("followers", [])}

    rows = [
        (
            {"replicas": count, "ack_level": str(level) if count else "baseline"},
            dict(load, replicas=count, repl_acks=level),
            followers,
        )
        for count, level in [(0, 0)] + [(replicas, lv) for lv in levels]
    ]
    return _sweep(
        "netbench-replication", rows, ratio="throughput_vs_baseline",
        mix=mix, n_ops=n_ops, record_count=record_count,
        connections=connections, replicas=replicas,
    )


def run_obs_overhead(
    mix: str = "a",
    n_ops: int = 4000,
    record_count: int = 1000,
    value_bytes: int = 100,
    connections: int = 4,
    seed: int = 0,
    scrape_interval_s: float = 0.2,
) -> dict:
    """Measure what telemetry costs at the network edge.

    Three identical runs: ``off`` (the default path — registry counters
    only, no scraping, tracing, or events), ``metrics`` (a live
    Prometheus scrape loop pulling the METRICS opcode throughout the
    run), and ``metrics+tracing`` (scraping plus an enabled server
    tracer, an event log, and traced clients stamping every request
    with a trace id).  The returned dict is the
    ``BENCH_obs_overhead.json`` payload; ``throughput_vs_off`` per run
    is the headline — the ``off`` path must stay within noise of the
    untelemetered baseline.
    """
    from ..obs import EventLog, Observability, Tracer

    load = dict(
        mix=mix, n_ops=n_ops, record_count=record_count,
        value_bytes=value_bytes, connections=connections, seed=seed,
    )
    scraped = dict(load, scrape_interval_s=scrape_interval_s)
    events = EventLog(lambda record: None, slow_op_threshold_s=None)
    traced = dict(
        scraped,
        obs=Observability(tracer=Tracer(enabled=True), events=events),
        trace_clients=True,
    )

    def telemetry(result: NetBenchResult, events_emitted: int = 0) -> dict:
        return {
            "scrapes": result.scrapes,
            "scrape_samples": result.scrape_samples,
            "client_spans": result.client_spans,
            "events_emitted": events_emitted,
        }

    rows = [
        ({"mode": "off"}, load, telemetry),
        ({"mode": "metrics"}, scraped, telemetry),
        ({"mode": "metrics+tracing"}, traced,
         lambda result: telemetry(result, events.emitted)),
    ]
    return _sweep(
        "netbench-obs-overhead", rows, ratio="throughput_vs_off",
        mix=mix, n_ops=n_ops, record_count=record_count,
        connections=connections, scrape_interval_s=scrape_interval_s,
    )


def _policy_sweep_options(policy: str) -> Options:
    """A compaction-heavy configuration for the policy sweep.

    Tiny memtables/tables and a shallow byte budget force data through
    several levels during the run, so the layout choice (leveled
    rewrite-on-overlap vs tiered whole-run pushes) dominates the bytes
    written — which is exactly what the sweep contrasts.  The stop
    trigger leaves room for a runs=4 tier to fill before stalling.
    """
    return Options(
        memtable_bytes=8 * 1024,
        sstable_bytes=8 * 1024,
        block_bytes=1024,
        level1_bytes=32 * 1024,
        level_multiplier=4,
        num_levels=5,
        l0_compaction_trigger=4,
        l0_stop_writes_trigger=8,
        compaction_policy=policy,
    )


def run_policy_sweep(
    policies: Optional[list[str]] = None,
    n_ops: int = 6000,
    record_count: int = 1500,
    value_bytes: int = 100,
    connections: int = 4,
    compaction_spec: Optional[ProcedureSpec] = None,
    seed: int = 0,
) -> dict:
    """Contrast the compaction policies on write-heavy and uniform
    workloads; return the ``BENCH_policies.json`` payload.

    Every policy serves the identical op stream on the identical
    compaction-heavy configuration (:func:`_policy_sweep_options`).
    Per run the table records throughput/latency plus the two
    amplification figures from the engine's own counters:

    * ``write_amp`` — SST bytes written (flush + compaction outputs)
      per logical byte the clients wrote (``wal.bytes``).  Tiering's
      whole-run pushes never rewrite the target level, so it should
      beat leveling here, and by design, not by noise.
    * ``space_amp`` — final on-disk table bytes per live logical byte
      (keys live once; tiering pays here, leveling wins).
    """
    policies = policies or ["leveled", "tiered:runs=4", "lazy-leveled:runs=4"]
    spec = compaction_spec or ProcedureSpec.scp()
    workloads = [
        # Write-heavy zipfian: compaction-bound, the tiered sweet spot.
        ("write-heavy", "w", "zipfian"),
        # Uniform 50/50: no hot keys, every level sees every key range.
        ("uniform", "a", "uniform"),
    ]
    # Live set ≈ the loaded keyspace (updates replace in place,
    # mix "w"/"a" never insert); key format is fixed-width.
    live_bytes = record_count * (16 + value_bytes) or 1

    def amplification(result: NetBenchResult, policy: str) -> dict:
        db_stats = result.server_stats.get("db", {})
        counters = result.server_stats.get("engine", {}).get("counters", {})
        logical = counters.get("wal.bytes", 0) or 1
        sst_written = counters.get("db.flush_bytes", 0) + counters.get(
            "compaction.output_bytes", 0
        )
        return {
            # The server's canonical spec replaces the requested one.
            "policy": db_stats.get("compaction_policy", policy),
            "write_stalls": db_stats.get("write_stalls"),
            "compactions": db_stats.get("compactions"),
            "logical_bytes": logical,
            "sst_bytes_written": sst_written,
            "write_amp": sst_written / logical,
            "final_table_bytes": db_stats.get("total_bytes", 0),
            "space_amp": db_stats.get("total_bytes", 0) / live_bytes,
        }

    rows = [
        (
            {"workload": name, "mix": mix, "distribution": distribution,
             "policy": policy},
            dict(
                mix=mix, n_ops=n_ops, record_count=record_count,
                value_bytes=value_bytes, connections=connections, seed=seed,
                options=_policy_sweep_options(policy), compaction_spec=spec,
                distribution=distribution,
            ),
            functools.partial(amplification, policy=policy),
        )
        for name, mix, distribution in workloads
        for policy in policies
    ]
    return _sweep(
        "netbench-policy-sweep", rows, n_ops=n_ops,
        record_count=record_count, value_bytes=value_bytes,
        connections=connections, procedure=spec.kind, policies=policies,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="netbench",
        description="Closed-loop YCSB load over the repro.server socket.",
    )
    parser.add_argument("--mix", default="a", help="YCSB mix (a/b/c/d/f)")
    parser.add_argument("--ops", type=int, default=10000)
    parser.add_argument("--records", type=int, default=2000)
    parser.add_argument("--value-bytes", type=int, default=100)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument(
        "--procedure", default="scp", choices=["scp", "pcp", "sppcp", "cppcp"],
        help="compaction procedure under test",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--shards", type=int, default=1,
        help="serve an in-memory N-shard cluster instead of one DB",
    )
    parser.add_argument(
        "--scaling", metavar="N,N,...", default=None,
        help="run the stall-bound scaling sweep at these shard counts "
             "(e.g. 1,2,4) instead of a single run",
    )
    parser.add_argument(
        "--replicas", type=int, default=0,
        help="attach N in-memory loopback followers to the primary",
    )
    parser.add_argument(
        "--repl-acks", metavar="N|majority", default="0",
        help="follower acks per write when --replicas > 0 "
             "(default 0; 'majority' = cluster majority)",
    )
    parser.add_argument(
        "--replication-sweep", action="store_true",
        help="run the ack-level sweep (baseline, then --replicas "
             "followers at ack 0/1/majority) instead of a single run",
    )
    parser.add_argument(
        "--net-fault-plan", metavar="JSON", default=None,
        help="route run-phase clients through a lossy chaos proxy "
             "driven by this NetFaultPlan JSON (clients get a retry "
             "policy so the load survives), e.g. "
             '\'{"seed": 7, "cut_rate": 0.02, "latency_ms": 2}\'',
    )
    parser.add_argument(
        "--obs-overhead", action="store_true",
        help="run the telemetry-overhead sweep (off / live metrics "
             "scraping / scraping+tracing+events) instead of a "
             "single run",
    )
    parser.add_argument(
        "--compaction-policy", metavar="SPEC", default=None,
        help="compaction policy for a single run (leveled, "
             "tiered:runs=N, lazy-leveled:runs=N)",
    )
    parser.add_argument(
        "--distribution", default="zipfian",
        choices=["zipfian", "uniform"],
        help="key-choice distribution for non-insert ops",
    )
    parser.add_argument(
        "--policy-sweep", action="store_true",
        help="contrast leveled/tiered/lazy-leveled on write-heavy and "
             "uniform workloads (write-amp, space-amp, ops/s) instead "
             "of a single run",
    )
    parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write the result table as JSON (with any of the sweeps: "
             "--scaling, --replication-sweep, --obs-overhead, "
             "--policy-sweep)",
    )
    args = parser.parse_args(argv)

    sized = dict(
        n_ops=args.ops, record_count=args.records,
        value_bytes=args.value_bytes, connections=args.connections,
        seed=args.seed,
    )
    spec = getattr(ProcedureSpec, args.procedure)()
    table = None
    if args.policy_sweep:
        table = run_policy_sweep(compaction_spec=spec, **sized)
    elif args.obs_overhead:
        table = run_obs_overhead(mix=args.mix, **sized)
    elif args.replication_sweep:
        table = run_replication_bench(
            replicas=args.replicas or 2, mix=args.mix, **sized
        )
    elif args.scaling is not None:
        table = run_scaling(
            [int(n) for n in args.scaling.split(",") if n.strip()],
            mix=args.mix, **sized,
        )
    if table is not None:
        for entry in table["runs"]:
            print(" ".join(
                f"{key}={value:.2f}" if isinstance(value, float)
                else f"{key}={value}"
                for key, value in entry.items()
                if not isinstance(value, (list, dict))
            ))
        if args.json_out:
            with open(args.json_out, "w") as fh:
                json.dump(table, fh, indent=2, sort_keys=True)
            print(f"wrote {args.json_out}")
        return 0

    net_fault_plan = None
    retry_policy = None
    if args.net_fault_plan is not None:
        from ..devices import NetFaultPlan
        from ..server import RetryPolicy

        net_fault_plan = NetFaultPlan.from_json(args.net_fault_plan)
        retry_policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.01, seed=args.seed
        )

    options = (
        Options(compaction_policy=args.compaction_policy)
        if args.compaction_policy is not None
        else None
    )
    result = run_net_benchmark(
        mix=args.mix,
        options=options,
        compaction_spec=spec,
        shards=args.shards,
        replicas=args.replicas,
        repl_acks=args.repl_acks,
        net_fault_plan=net_fault_plan,
        retry_policy=retry_policy,
        distribution=args.distribution,
        **sized,
    )
    print(result.summary())
    db_stats = result.server_stats.get("db", {})
    print(
        f"engine: flushes={db_stats.get('flushes')} "
        f"compactions={db_stats.get('compactions')} "
        f"write_stalls={db_stats.get('write_stalls')} "
        f"stall_rejections="
        f"{result.server_stats.get('server', {}).get('stall_rejections')}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
