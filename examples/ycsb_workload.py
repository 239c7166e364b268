#!/usr/bin/env python
"""Drive the store with YCSB-style mixed workloads.

Loads a keyspace, then runs the classic YCSB mixes (A/B/C/D/F) against
the engine with pipelined compaction, reporting operation counts, the
tree shape, and cache behaviour.  Demonstrates that the engine is a
complete KV store (reads, updates, inserts, RMW), not just an
insert-only benchmark harness.

Run:  python examples/ycsb_workload.py
"""

import time

from repro.bench.report import format_table
from repro.core import ProcedureSpec
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options
from repro.workload import YCSBWorkload


def main() -> None:
    options = Options(
        memtable_bytes=64 * 1024,
        sstable_bytes=32 * 1024,
        block_bytes=4 * 1024,
        level1_bytes=128 * 1024,
        level_multiplier=4,
        compression="zlib",
        block_cache_entries=512,
    )
    record_count = 4000
    ops_per_mix = 4000

    rows = []
    for mix in ("a", "b", "c", "d", "f"):
        db = DB(
            MemStorage(), options,
            compaction_spec=ProcedureSpec.pcp(subtask_bytes=16 * 1024),
        )
        workload = YCSBWorkload(
            mix, n_ops=ops_per_mix, record_count=record_count, seed=17
        )
        for key, value in workload.load_phase():
            db.put(key, value)
        db.flush()

        t0 = time.perf_counter()
        counts = workload.apply_to(db)
        elapsed = time.perf_counter() - t0

        counters = db.metrics_snapshot()["counters"]
        hits, misses = counters["cache.hits"], counters["cache.misses"]
        rows.append(
            [
                mix.upper(),
                counts.get("read", 0),
                counts.get("update", 0),
                counts.get("insert", 0),
                counts.get("rmw", 0),
                ops_per_mix / elapsed,
                f"{hits / (hits + misses) * 100:.0f}%",
                counters["db.compactions"],
            ]
        )
        db.close()

    print(format_table(
        ["mix", "reads", "updates", "inserts", "rmw", "ops/s",
         "cache hits", "compactions"],
        rows,
        title="YCSB mixes over the PCP-compacted store "
        f"({record_count} records loaded, {ops_per_mix} ops each)",
    ))


if __name__ == "__main__":
    main()
