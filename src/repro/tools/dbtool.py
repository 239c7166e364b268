"""``python -m repro.tools.dbtool`` — database administration CLI.

Commands (all take a database directory):

* ``stats <dir>``    — tree shape, per-level sizes, entry counts,
  plus the engine's I/O and block-cache counters for the session.
* ``verify <dir>``   — full integrity check (exit code 1 on corruption).
* ``repair <dir>``   — rebuild CURRENT/MANIFEST from salvageable tables.
* ``fsck <dir>``     — verify, and with ``--repair`` rebuild on damage
  and re-verify; exit code 1 only if errors remain unrecovered.
* ``dump <dir>``     — print live key/value pairs (optionally a range).
* ``compact <dir>``  — run compactions until the tree is quiescent.
* ``serve <dir>``    — expose the database over TCP (repro.server).
  Plain-DB serves are replication primaries (followers may subscribe;
  ``--repl-acks`` sets the write durability level); ``--replica-of
  HOST:PORT`` serves as a read-only follower instead.
* ``promote <dir>``  — bump a stopped follower's fencing epoch so it
  becomes the primary (manual failover; see docs/REPLICATION.md).
* ``repl-status HOST:PORT...`` — probe replica endpoints, print the
  role map (exit 1 when no primary is reachable).
* ``failover HOST:PORT...`` — watch a replica set and automatically
  promote the most-caught-up follower when the primary misses enough
  probes (``--once`` for a single probe/elect/promote round).
* ``chaos-proxy LISTEN UPSTREAM`` — seed-deterministic fault-injecting
  TCP proxy (``--plan`` takes NetFaultPlan JSON: refused/cut
  connections, latency, asymmetric partitions; see docs/CHAOS.md).
* ``trace <out>``    — run a small in-memory YCSB load with tracing
  enabled and write a Chrome trace-event JSON (Perfetto-loadable)
  showing the S1–S7 compaction pipeline (takes an output path, not a
  database directory).  With ``--distributed``, stand up a live
  1-primary/1-follower cluster instead and write one *merged* trace
  whose client/server/DB/replication spans share trace ids.
* ``scrape HOST:PORT`` — fetch a served database's live metrics
  (Prometheus text or JSON; ``--check`` validates the payload).
* ``top HOST:PORT``  — live terminal dashboard (ops/s, tail latency,
  stall state, compaction backlog, replication lag per follower).

``stats``, ``fsck``, ``serve``, and ``trace`` are cluster-aware: pass
``--shards N`` (or let a ``CLUSTER`` manifest in the directory opt in
automatically) to operate on a :mod:`repro.cluster` sharded store —
``fsck`` then checks every ``shard-NN`` subdirectory and exits with
the worst shard's code.

Engine options that affect on-disk interpretation (block checksum kind,
compression) are format-self-describing, so the defaults work for any
database written by this library.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from ..db.db import DB
from ..db.verify import repair_db, verify_db
from ..devices.vfs import OSStorage
from ..lsm.options import Options
from ..lsm.table_format import TableCorruption, UnsupportedTableFormat

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbtool",
        description="Administer a repro LSM database directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in [
        ("stats", "show tree shape and counters"),
        ("verify", "check checksums, ordering, and level invariants"),
        ("repair", "rebuild the manifest from salvageable SSTables"),
        ("dump", "print live key/value pairs"),
        ("compact", "compact until quiescent"),
    ]:
        cmd = sub.add_parser(name, help=help_)
        cmd.add_argument("directory", help="database directory")
        if name in ("stats", "compact"):
            cmd.add_argument(
                "--compaction-policy", default=None, metavar="SPEC",
                help="compaction policy to open under (leveled, "
                     "tiered:runs=N, lazy-leveled:runs=N); default "
                     "adopts the policy persisted in the manifest, and "
                     "a mismatching spec fails loudly",
            )
        if name == "stats":
            cmd.add_argument(
                "--shards", type=int, default=None, metavar="N",
                help="treat the directory as an N-shard cluster "
                     "(auto-detected from a CLUSTER manifest when omitted)",
            )
        if name == "dump":
            cmd.add_argument("--start", type=_bytes_arg, default=None)
            cmd.add_argument("--end", type=_bytes_arg, default=None)
            cmd.add_argument("--limit", type=int, default=None)
            cmd.add_argument(
                "--keys-only", action="store_true", help="omit values"
            )

    fsck = sub.add_parser(
        "fsck",
        help="verify, optionally repair on damage, and re-verify",
    )
    fsck.add_argument("directory", help="database directory")
    fsck.add_argument(
        "--repair", action="store_true",
        help="on damage, rebuild the manifest from salvageable tables "
             "and verify again (exit 0 only if the rebuilt store is clean)",
    )
    fsck.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="fsck every shard-NN subdirectory of an N-shard cluster; "
             "exit code is the worst shard's (auto-detected from a "
             "CLUSTER manifest when omitted)",
    )

    sst = sub.add_parser("sst", help="inspect one SSTable file")
    sst.add_argument("directory", help="database directory")
    sst.add_argument("file", help="table file name, e.g. 000004.sst")

    srv = sub.add_parser("serve", help="expose the database over TCP")
    srv.add_argument("directory", help="database directory")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7379)
    srv.add_argument(
        "--workers", type=int, default=4, help="DB dispatch thread pool size"
    )
    srv.add_argument(
        "--max-inflight", type=int, default=32,
        help="pipelined requests admitted per connection",
    )
    srv.add_argument(
        "--sync-compaction", action="store_true",
        help="run compactions inline with writes instead of a "
             "background thread (no STALLED backpressure)",
    )
    srv.add_argument(
        "--fault-plan", metavar="JSON", default=None,
        help='inject storage faults, e.g. \'{"seed": 7, '
             '"write_error_rate": 0.01}\' (see repro.devices.FaultPlan)',
    )
    srv.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="serve an N-shard cluster rooted at the directory "
             "(auto-detected from a CLUSTER manifest when omitted)",
    )
    srv.add_argument(
        "--replica-of", metavar="HOST:PORT", default=None,
        help="serve as a read-only follower replicating from this "
             "primary (incompatible with --shards)",
    )
    srv.add_argument(
        "--repl-acks", metavar="N|majority", default="0",
        help="follower acks a write collects before OK when serving "
             "as a primary (default 0; 'majority' = cluster majority)",
    )
    srv.add_argument(
        "--repl-retain-bytes", type=int, default=8 * 1024 * 1024,
        help="retired-WAL bytes retained for follower catch-up when "
             "serving as a primary (default 8 MiB; 0 disables)",
    )
    srv.add_argument(
        "--follower-id", default=None,
        help="stable follower identity for --replica-of "
             "(default: the database directory name)",
    )
    srv.add_argument(
        "--events", metavar="PATH", default=None,
        help="stream JSONL lifecycle events (flush, compaction, stall, "
             "fence, replication) to this file",
    )
    srv.add_argument(
        "--slow-op-ms", type=float, default=None, metavar="MS",
        help="log ops at or above this latency to the event log "
             "(stderr when --events is not given)",
    )
    srv.add_argument(
        "--trace", action="store_true",
        help="enable the span tracer; clients can pull the timeline "
             "with the TRACE opcode (dbtool trace --distributed)",
    )
    srv.add_argument(
        "--compaction-policy", default=None, metavar="SPEC",
        help="compaction policy to open under (leveled, tiered:runs=N, "
             "lazy-leveled:runs=N); default adopts the persisted policy",
    )

    pro = sub.add_parser(
        "promote",
        help="promote a (stopped) follower directory: bump its fencing "
             "epoch so it outranks the old primary",
    )
    pro.add_argument("directory", help="database directory")

    rst = sub.add_parser(
        "repl-status",
        help="probe replica endpoints and print the role map",
    )
    rst.add_argument(
        "endpoints", nargs="+", metavar="HOST:PORT",
        help="servers to probe (primary and followers)",
    )

    fov = sub.add_parser(
        "failover",
        help="watch a replica set and auto-promote the most-caught-up "
             "follower when the primary dies",
    )
    fov.add_argument(
        "endpoints", nargs="+", metavar="HOST:PORT",
        help="the replica set (primary and followers)",
    )
    fov.add_argument(
        "--once", action="store_true",
        help="run one probe/elect/promote round and exit "
             "(exit 0 = healthy or promoted, 1 = primary down and "
             "nothing promotable)",
    )
    fov.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="probe interval (default 0.5)",
    )
    fov.add_argument(
        "--threshold", type=int, default=3, metavar="N",
        help="consecutive missed probes before failover (default 3)",
    )
    fov.add_argument(
        "--probe-timeout", type=float, default=1.0, metavar="SECONDS",
        help="per-endpoint probe timeout (default 1.0)",
    )
    fov.add_argument(
        "--events", metavar="FILE", default=None,
        help="append failover.* lifecycle events (JSONL) to this file",
    )

    cpx = sub.add_parser(
        "chaos-proxy",
        help="fault-injecting TCP proxy: put it between clients (or "
             "followers) and a server to inject partitions, latency, "
             "refused and cut connections",
    )
    cpx.add_argument(
        "listen", metavar="HOST:PORT",
        help="address to listen on (port 0 picks one and prints it)",
    )
    cpx.add_argument(
        "upstream", metavar="HOST:PORT", help="server to forward to"
    )
    cpx.add_argument(
        "--plan", metavar="JSON", default=None,
        help="NetFaultPlan JSON, e.g. "
             '\'{"seed": 7, "cut_rate": 0.05, "latency_ms": 20}\'',
    )
    cpx.add_argument(
        "--events", metavar="FILE", default=None,
        help="append net.fault_injected events (JSONL) to this file",
    )

    trc = sub.add_parser(
        "trace",
        help="run an in-memory YCSB load with span tracing and write "
             "a Chrome trace-event JSON",
    )
    trc.add_argument("output", help="output trace file, e.g. trace.json")
    trc.add_argument("--mix", default="a", help="YCSB mix (a/b/c/d/f)")
    trc.add_argument("--ops", type=int, default=2000, help="ops after load")
    trc.add_argument("--records", type=int, default=2000, help="loaded records")
    trc.add_argument("--value-bytes", type=int, default=256)
    trc.add_argument(
        "--procedure", default="pcp", choices=["scp", "pcp", "sppcp", "cppcp"],
        help="compaction procedure to trace (default pcp)",
    )
    trc.add_argument(
        "--subtask-kb", type=int, default=8,
        help="compaction sub-task granularity in KiB (small values "
             "produce many pipelined sub-tasks per compaction)",
    )
    trc.add_argument(
        "--gantt", action="store_true",
        help="also print an ASCII gantt of the compaction spans",
    )
    trc.add_argument(
        "--fault-plan", metavar="JSON", default=None,
        help="inject storage faults during the traced run "
             "(see repro.devices.FaultPlan)",
    )
    trc.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="trace an N-shard in-memory cluster instead of one DB "
             "(all shards share one timeline)",
    )
    trc.add_argument(
        "--distributed", action="store_true",
        help="instead of an embedded DB, stand up a 1-primary/"
             "1-follower cluster over loopback, drive it with a traced "
             "client, and write one *merged* Chrome trace whose "
             "client/server/DB/replication spans share trace ids",
    )

    scr = sub.add_parser(
        "scrape",
        help="fetch a served database's live metrics (protocol ≥ 2.1)",
    )
    scr.add_argument("endpoint", metavar="HOST:PORT")
    scr.add_argument(
        "--format", choices=["prom", "json"], default="prom",
        help="exposition format (default Prometheus text)",
    )
    scr.add_argument(
        "--check", action="store_true",
        help="validate the payload (strict Prometheus parse / JSON "
             "shape) and report what was scraped on stderr",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard for a served database",
    )
    top.add_argument("endpoint", metavar="HOST:PORT")
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    return parser


def _bytes_arg(text: str) -> bytes:
    return text.encode()


def _open_db(directory: str, policy: str | None = None) -> DB:
    return DB(OSStorage(directory), Options(compaction_policy=policy))


def _maybe_faulty(storage, plan_json: str | None):
    """Wrap ``storage`` in a FaultyStorage when a plan was given."""
    if plan_json is None:
        return storage
    from ..devices.faults import FaultPlan, FaultyStorage

    return FaultyStorage(storage, FaultPlan.from_json(plan_json))


def _cluster_n_shards(directory: str, shards_arg: int | None) -> int | None:
    """Resolve cluster mode: explicit ``--shards`` wins, otherwise a
    CLUSTER manifest in the directory opts in; None means plain DB."""
    if shards_arg is not None:
        return shards_arg
    from ..cluster import ClusterManifest

    storage = OSStorage(directory)
    if ClusterManifest.exists(storage):
        return ClusterManifest.load(storage).n_shards
    return None


def _shape(db: DB) -> tuple[str, str]:
    """``L<n>=<sorted runs>`` for each non-empty level, and the tree
    text (``DB.describe()`` without its ``policy=`` line)."""
    levels = [lv for lv in range(db.options.num_levels) if db.num_files(lv)]
    runs = " ".join(f"L{lv}={db.num_runs(lv)}" for lv in levels)
    return runs, db.describe().partition("\n")[2]


def cmd_stats(args) -> int:
    n_shards = _cluster_n_shards(args.directory, args.shards)
    if n_shards is None:
        db = _open_db(args.directory, policy=args.compaction_policy)
    else:
        from ..cluster import ShardedDB

        db = ShardedDB.open_path(args.directory, n_shards=n_shards)
    try:
        if n_shards is not None:
            print(
                f"shards={db.n_shards} partitioner={db.partitioner.spec()} "
                f"policy={db.policy.spec()}"
            )
            for s in db.shard_stats():
                print(
                    f"shard{s['shard']}: writes={s['writes']} "
                    f"l0={s['l0_files']} bytes={s['total_bytes']} "
                    f"stalled={s['write_stalled_now']}"
                )
        print("policy:", db.policy.spec())
        if n_shards is None:
            runs, tree = _shape(db)
            print(tree)
        total = db.total_bytes()
        print(f"total table bytes: {total} ({total / 1e6:.2f} MB)")
        levels = [
            f"L{lv}={db.num_files(lv)}"
            for lv in range(db.options.num_levels)
            if db.num_files(lv)
        ]
        where = "" if n_shards is None else " (all shards)"
        print(f"files per level{where}:", " ".join(levels) or "(none)")
        if n_shards is None:
            print("runs per level:", runs or "(none)")
        print("live entries:", sum(1 for _ in db.scan()))
        if n_shards is None:
            counters = db.metrics_snapshot()["counters"]
            io = [f"{k}={v}" for k, v in counters.items() if k.startswith("io.")]
            print("io-stats (this session):")
            for line in io or ["(no io recorded)"]:
                print(f"  {line}")
            hits, misses = counters["cache.hits"], counters["cache.misses"]
            lookups = hits + misses
            print(
                f"cache-stats: hits={hits} misses={misses} "
                f"evictions={counters['cache.evictions']} "
                f"hit_rate={hits / lookups if lookups else 0.0:.4f}"
            )
    finally:
        db.close()
    return 0


def cmd_verify(args) -> int:
    report = verify_db(OSStorage(args.directory), Options())
    print(report.render())
    return 0 if report.ok else 1


def cmd_repair(args) -> int:
    try:
        result = repair_db(OSStorage(args.directory), Options())
    except UnsupportedTableFormat as exc:
        print(f"repair stopped: {exc}", file=sys.stderr)
        return 1
    print(f"salvaged {len(result['salvaged'])} tables")
    for name in result["salvaged"]:
        print(f"  + {name}")
    if result["dropped"]:
        print(f"dropped {len(result['dropped'])} corrupt tables")
        for name in result["dropped"]:
            print(f"  - {name}")
    return 0


def cmd_fsck(args) -> int:
    n_shards = _cluster_n_shards(args.directory, args.shards)
    if n_shards is None:
        return _fsck_dir(args.directory, args.repair)
    import os

    from ..cluster import shard_dir_name

    worst = 0
    for i in range(n_shards):
        shard_dir = os.path.join(args.directory, shard_dir_name(i))
        print(f"=== shard {i}: {shard_dir} ===")
        worst = max(worst, _fsck_dir(shard_dir, args.repair))
    print(f"fsck: {n_shards} shards checked, "
          f"{'all clean' if worst == 0 else 'errors remain'}")
    return worst


def _fsck_dir(directory: str, repair: bool) -> int:
    storage = OSStorage(directory)
    report = verify_db(storage, Options())
    print(report.render())
    if report.ok:
        return 0
    if not repair:
        print("fsck: errors found (rerun with --repair to rebuild)")
        return 1
    print("fsck: attempting repair...")
    try:
        result = repair_db(storage, Options())
    except UnsupportedTableFormat as exc:
        print(f"fsck: repair stopped: {exc}")
        return 1
    print(f"fsck: salvaged {len(result['salvaged'])} tables, "
          f"dropped {len(result['dropped'])}")
    report = verify_db(storage, Options())
    print(report.render())
    if not report.ok:
        print("fsck: errors remain after repair")
        return 1
    return 0


def cmd_dump(args) -> int:
    db = _open_db(args.directory)
    try:
        count = 0
        for key, value in db.scan(args.start, args.end):
            if args.limit is not None and count >= args.limit:
                break
            if args.keys_only:
                print(key.decode(errors="backslashreplace"))
            else:
                print(
                    key.decode(errors="backslashreplace"),
                    "=",
                    value.decode(errors="backslashreplace"),
                )
            count += 1
        print(f"({count} entries)", file=sys.stderr)
    finally:
        db.close()
    return 0


def cmd_compact(args) -> int:
    db = _open_db(args.directory, policy=args.compaction_policy)
    try:
        n = db.compact_range()
        print(f"ran {n} compactions")
        print(f"policy: {db.policy.spec()}")
        runs, sstables = _shape(db)
        if db.compaction_log:
            print(f"policy={db.policy.spec()} runs[{runs or 'empty'}]")
            for r in db.compaction_log:
                print(
                    f"L{r['level']}->L{r['output_level']} {r['procedure']} "
                    f"policy={r['policy']} inputs={r['inputs']} "
                    f"subtasks={r['subtasks']} "
                    f"in={r['input_bytes']} out={r['output_bytes']} "
                    f"pass={r['pass']} reuse={r['reuse']} "
                    f"{r['seconds'] * 1e3:.1f}ms"
                )
        else:
            print("(no compactions yet)")
        print(sstables)
    finally:
        db.close()
    return 0


def cmd_sst(args) -> int:
    from ..lsm.ikey import decode_internal_key
    from ..lsm.table_reader import Table

    storage = OSStorage(args.directory)
    try:
        table = Table(storage.open(args.file), Options())
    except TableCorruption as exc:
        print(f"{args.file}: unreadable table: {exc}", file=sys.stderr)
        return 1
    handles = table.block_handles()
    stored = sum(h.size + 5 for h in handles)
    entries = list(table)
    raw = sum(len(k) + len(v) for k, v in entries)
    first_user = decode_internal_key(entries[0][0])[0] if entries else b""
    last_user = decode_internal_key(entries[-1][0])[0] if entries else b""
    print(f"file:          {args.file}")
    print(f"size:          {storage.file_size(args.file)} bytes")
    print(f"data blocks:   {len(handles)}")
    census = Counter(table.block_codecs())
    print("codecs:        " + " ".join(f"{c}={n}" for c, n in sorted(census.items())))
    print(f"filter:        {table.filter_layout()}")
    print(f"entries:       {len(entries)} (footer: {table.num_entries})")
    print(f"key range:     {first_user!r} .. {last_user!r}")
    if raw:
        print(f"block payload: {stored} bytes "
              f"({stored / raw:.2f}x of {raw} raw key+value bytes)")
    seqs = [decode_internal_key(k)[1] for k, _ in entries]
    if seqs:
        print(f"sequences:     {min(seqs)} .. {max(seqs)}")
    table.close()
    return 0


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, int(port)


def _serve_obs(args):
    """Build the serve command's Observability from its telemetry flags."""
    from ..obs import EventLog, Observability, Tracer

    threshold = (
        args.slow_op_ms / 1e3 if args.slow_op_ms is not None else None
    )
    sink = args.events
    if sink is None and threshold is not None:
        sink = sys.stderr  # slow-op log with no file: spill to stderr
    return Observability(
        tracer=Tracer(enabled=args.trace),
        events=EventLog(sink, slow_op_threshold_s=threshold),
    )


def cmd_serve(args) -> int:
    from ..server import ServerConfig, serve_forever

    obs = _serve_obs(args)
    n_shards = _cluster_n_shards(args.directory, args.shards)
    repl_acks = (
        -1 if args.repl_acks == "majority" else int(args.repl_acks)
    )
    hub = None
    follower = None
    if args.replica_of is not None:
        if n_shards is not None:
            print("serve: --replica-of is not supported with --shards",
                  file=sys.stderr)
            return 2
        import os

        from ..replication import Follower

        primary_host, primary_port = _parse_endpoint(args.replica_of)
        background = not args.sync_compaction

        def _factory(directory=args.directory, background=background):
            # One shared Observability across snapshot-install reopens:
            # counters/events survive the DB swap.
            return DB(
                OSStorage(directory),
                Options(compaction_policy=args.compaction_policy),
                background=background, obs=obs,
            )

        db = _factory()
        follower_id = args.follower_id or os.path.basename(
            os.path.abspath(args.directory)
        )
        follower = Follower(
            db, db.storage, _factory,
            primary_host, primary_port, follower_id,
        ).start()
    elif n_shards is not None:
        if args.fault_plan is not None:
            print("serve: --fault-plan is not supported with --shards",
                  file=sys.stderr)
            return 2
        from ..cluster import ShardedDB

        db = ShardedDB.open_path(
            args.directory,
            n_shards=n_shards,
            options=Options(compaction_policy=args.compaction_policy),
            background=not args.sync_compaction,
            obs=obs,
        )
    else:
        from ..replication import ReplicationHub

        db = DB(
            _maybe_faulty(OSStorage(args.directory), args.fault_plan),
            Options(
                wal_retain_bytes=args.repl_retain_bytes,
                compaction_policy=args.compaction_policy,
            ),
            background=not args.sync_compaction,
            obs=obs,
        )
        # Every plain-DB serve is primary-capable: followers may
        # subscribe whether or not any exist yet.
        hub = ReplicationHub(db)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        worker_threads=args.workers,
        max_inflight_per_conn=args.max_inflight,
        read_only=follower is not None,
        repl_acks=repl_acks,
    )
    try:
        serve_forever(db, config, hub=hub, follower=follower)
    finally:
        if follower is not None:
            follower.stop()
            follower.db.close()
        db.close()
        if obs.events.enabled and args.events is not None:
            obs.events.close()
    return 0


def cmd_scrape(args) -> int:
    import json

    from ..server.client import SyncClient

    client = SyncClient(*_parse_endpoint(args.endpoint))
    try:
        if args.format == "prom":
            text = client.metrics("prom")
            if args.check:
                from ..obs import parse_prometheus

                series = parse_prometheus(text)
                n = sum(len(samples) for samples in series.values())
                print(f"scrape: {n} samples in {len(series)} series, "
                      "exposition is well-formed", file=sys.stderr)
            print(text, end="")
        else:
            snap = client.metrics("json")
            if args.check:
                for kind in ("counters", "gauges", "histograms"):
                    if not isinstance(snap.get(kind), dict):
                        print(f"scrape: malformed snapshot: no {kind!r}",
                              file=sys.stderr)
                        return 1
                print(f"scrape: {sum(len(snap[k]) for k in snap)} metrics",
                      file=sys.stderr)
            print(json.dumps(snap, indent=2, sort_keys=True))
    finally:
        client.close()
    return 0


def cmd_top(args) -> int:
    from ..server.client import SyncClient
    from .top import render_top, sample, top_loop

    client = SyncClient(*_parse_endpoint(args.endpoint))
    try:
        if args.once:
            import time

            before = sample(client)
            time.sleep(min(args.interval, 0.5))
            after = sample(client)
            print(render_top(before, after, min(args.interval, 0.5),
                             args.endpoint))
            return 0
        return top_loop(client, args.endpoint, interval_s=args.interval)
    finally:
        client.close()


def cmd_promote(args) -> int:
    """Fence off the old primary: bump this replica's epoch.

    Run against a *stopped* follower directory (the failover runbook
    in docs/REPLICATION.md).  After promotion the old primary's hub
    refuses this node's subscriptions (ST_FENCED) and clients elect
    this node, whose epoch is now highest.
    """
    db = _open_db(args.directory)
    try:
        old = db.repl_epoch
        db.set_repl_epoch(old + 1)
        print(f"promoted: fencing epoch {old} -> {old + 1} "
              f"(last sequence {db.last_sequence})")
    finally:
        db.close()
    return 0


def cmd_repl_status(args) -> int:
    import json

    from ..replication import ReplicatedShard

    shard = ReplicatedShard(
        [_parse_endpoint(e) for e in args.endpoints], timeout=5.0
    )
    try:
        status = shard.status()
    finally:
        shard.close()
    print(json.dumps(status, indent=2, sort_keys=True))
    if status["primary"] is None:
        print("repl-status: no reachable primary", file=sys.stderr)
        return 1
    return 0


def cmd_failover(args) -> int:
    import json

    from ..obs import EventLog, Observability
    from ..replication import FailoverCoordinator

    obs = Observability()
    if args.events is not None:
        obs = Observability(events=EventLog(args.events))
    coordinator = FailoverCoordinator(
        [_parse_endpoint(e) for e in args.endpoints],
        heartbeat_interval_s=args.interval,
        failure_threshold=args.threshold,
        probe_timeout_s=args.probe_timeout,
        obs=obs,
    )
    if args.once:
        promoted = None
        for _ in range(args.threshold):
            promoted = coordinator.check_once()
            if promoted is not None:
                break
        status = coordinator.status()
        status["statuses"] = coordinator.poll()
        print(json.dumps(status, indent=2, sort_keys=True, default=str))
        healthy = promoted is not None or status["last_primary"] is not None
        return 0 if healthy else 1
    coordinator.start()
    print(
        f"failover: watching {len(args.endpoints)} endpoints "
        f"(interval {args.interval}s, threshold {args.threshold})",
        flush=True,
    )
    try:
        while True:
            time.sleep(60)
    except KeyboardInterrupt:
        pass
    finally:
        coordinator.stop()
        if obs.events.enabled:
            obs.events.close()
    print(json.dumps(coordinator.status(), indent=2, sort_keys=True))
    return 0


def cmd_chaos_proxy(args) -> int:
    import json

    from ..devices import FaultyProxy, NetFaultPlan
    from ..obs import EventLog, MetricsRegistry

    host, port = _parse_endpoint(args.listen)
    upstream_host, upstream_port = _parse_endpoint(args.upstream)
    plan = (
        NetFaultPlan.from_json(args.plan)
        if args.plan is not None
        else NetFaultPlan()
    )
    metrics = MetricsRegistry()
    events = EventLog(args.events) if args.events is not None else None
    proxy = FaultyProxy(
        upstream_host, upstream_port, plan=plan, host=host, port=port
    ).start()
    proxy.attach_obs(metrics=metrics, events=events)
    print(
        f"chaos-proxy: {proxy.host}:{proxy.port} -> "
        f"{upstream_host}:{upstream_port} plan={plan.to_json()}",
        flush=True,
    )
    try:
        while True:
            time.sleep(60)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.close()
        if events is not None:
            events.close()
    print(json.dumps({"injected": proxy.injected}, sort_keys=True))
    return 0


def _cmd_trace_distributed(args) -> int:
    """One merged multi-process trace of a live replicated cluster.

    Stands up a primary ``ServerThread`` (own tracer) with one tailing
    :class:`Follower` (own tracer), drives a YCSB load through a traced
    :class:`SyncClient` at ack=1, then merges the three timelines into
    a single Chrome trace: the client's ``client:<OP>`` spans carry
    trace ids that the server's dispatch/db/repl spans share, and the
    follower's ``repl-apply`` spans land in their own process lane.
    """
    import time

    from ..devices.vfs import MemStorage
    from ..obs import Observability, Tracer, write_merged_chrome_trace
    from ..replication import Follower, ReplicationHub
    from ..server.client import SyncClient
    from ..server.server import ServerConfig, ServerThread
    from ..workload.ycsb import YCSBWorkload

    primary = DB(
        MemStorage(),
        Options(wal_retain_bytes=8 * 1024 * 1024),
        obs=Observability(tracer=Tracer(enabled=True)),
    )
    hub = ReplicationHub(primary)
    follower_obs = Observability(tracer=Tracer(enabled=True))
    client_tracer = Tracer(enabled=True)
    config = ServerConfig(repl_acks=1, repl_ack_timeout_s=10.0)
    with ServerThread(primary, config, own_db=False, hub=hub) as handle:
        follower_db = DB(MemStorage(), Options(), obs=follower_obs)
        storage = follower_db.storage

        def factory():
            return DB(storage, Options(), obs=follower_obs)

        follower = Follower(
            follower_db, storage, factory,
            handle.host, handle.port, "follower-a",
            retry_interval_s=0.05,
        ).start()
        try:
            deadline = time.monotonic() + 10.0
            while hub.n_followers < 1:
                if time.monotonic() > deadline:
                    print("trace: follower never subscribed",
                          file=sys.stderr)
                    return 1
                time.sleep(0.01)
            client = SyncClient(
                handle.host, handle.port, tracer=client_tracer
            )
            client.hello()
            workload = YCSBWorkload(
                args.mix, args.ops, args.records,
                value_bytes=args.value_bytes,
            )
            for key, value in workload.load_phase():
                client.put(key, value)
            counts = workload.apply_to(client)
            target = primary.last_sequence
            deadline = time.monotonic() + 10.0
            while (
                follower.db.last_sequence < target
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            # Pull the primary's timeline over the wire (TRACE opcode)
            # rather than reaching into the in-process object: the same
            # path works against a genuinely remote server.
            server_trace = client.trace_dump()
            client.close()
        finally:
            follower.stop()
            follower.db.close()
    n = write_merged_chrome_trace(
        args.output,
        [
            ("client", client_tracer.chrome_trace()),
            ("primary", server_trace),
            ("follower", follower_obs.tracer.chrome_trace()),
        ],
    )
    traced = sum(
        1 for s in client_tracer.spans() if s.args.get("trace_id")
    )
    print(f"wrote {args.output}: {n} spans across 3 process lanes "
          f"({traced} traced client requests, ops: {counts})")
    print("load it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_trace(args) -> int:
    if args.distributed:
        if args.shards is not None or args.fault_plan is not None:
            print("trace: --distributed is incompatible with --shards "
                  "and --fault-plan", file=sys.stderr)
            return 2
        return _cmd_trace_distributed(args)
    from ..core.procedures import ProcedureSpec
    from ..devices.vfs import MemStorage
    from ..obs import Observability, Tracer, pipeline_overlap
    from ..workload.ycsb import YCSBWorkload

    spec_kw = {"subtask_bytes": args.subtask_kb * 1024}
    if args.procedure in ("sppcp", "cppcp"):
        spec_kw["k"] = 2
    spec = getattr(ProcedureSpec, args.procedure)(**spec_kw)
    # Tiny thresholds so a small load produces several multi-sub-task
    # compactions (and therefore a visibly pipelined trace).
    options = Options(
        memtable_bytes=32 * 1024,
        sstable_bytes=16 * 1024,
        block_bytes=1024,
        level1_bytes=64 * 1024,
        level_multiplier=4,
        block_cache_entries=64,
    )
    obs = Observability(tracer=Tracer(enabled=True))
    workload = YCSBWorkload(
        args.mix, args.ops, args.records, value_bytes=args.value_bytes
    )
    if args.shards is not None:
        if args.fault_plan is not None:
            print("trace: --fault-plan is not supported with --shards",
                  file=sys.stderr)
            return 2
        from ..cluster import ShardedDB

        # Each shard compacts on its own per-call executor; all shards
        # share the cluster tracer, so one timeline shows them all.
        db = ShardedDB.in_memory(
            args.shards, options=options, compaction_spec=spec, obs=obs
        )
    else:
        db = DB(
            _maybe_faulty(MemStorage(), args.fault_plan),
            options, compaction_spec=spec, obs=obs,
        )
    try:
        for key, value in workload.load_phase():
            db.put(key, value)
        workload.apply_to(db)
        db.compact_range()
    finally:
        db.close()

    n_events = obs.tracer.write_chrome_trace(args.output)
    compactions = obs.tracer.spans(cat="compaction")
    print(f"wrote {args.output}: {n_events} spans "
          f"({len(compactions)} compactions, {obs.tracer.dropped} dropped)")
    pair = pipeline_overlap(obs.tracer.spans())
    if pair is not None:
        r, c = pair
        print(
            f"pipeline overlap: {r.name} (subtask {r.args.get('subtask')}) "
            f"overlaps {c.name} (subtask {c.args.get('subtask')}) "
            f"for {min(r.end, c.end) - max(r.start, c.start):.6f}s"
        )
    else:
        print("pipeline overlap: none observed "
              "(expected for scp; rerun with --procedure pcp)")
    if args.gantt:
        print(obs.tracer.render_gantt())
    print("load it at https://ui.perfetto.dev or chrome://tracing")
    return 0


_COMMANDS = {
    "stats": cmd_stats,
    "verify": cmd_verify,
    "repair": cmd_repair,
    "fsck": cmd_fsck,
    "dump": cmd_dump,
    "compact": cmd_compact,
    "sst": cmd_sst,
    "serve": cmd_serve,
    "promote": cmd_promote,
    "repl-status": cmd_repl_status,
    "failover": cmd_failover,
    "chaos-proxy": cmd_chaos_proxy,
    "trace": cmd_trace,
    "scrape": cmd_scrape,
    "top": cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
