#!/usr/bin/env python
"""Quickstart: the key-value store with pipelined compaction.

Open a DB, write, read, scan, take a snapshot, and watch background
compactions reshape the tree.  Everything here runs in memory; swap
``MemStorage`` for ``OSStorage(path)`` to persist to disk.

Run:  python examples/quickstart.py
"""

from repro.core import ProcedureSpec
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options, WriteBatch


def main() -> None:
    # Engine tuned small so this demo triggers real compactions.
    options = Options(
        memtable_bytes=64 * 1024,
        sstable_bytes=32 * 1024,
        block_bytes=4 * 1024,
        level1_bytes=128 * 1024,
        level_multiplier=4,
        compression="lz77",
    )
    # The paper's contribution, one argument away: background
    # compactions run through the 3-stage pipelined procedure.
    spec = ProcedureSpec.pcp(subtask_bytes=16 * 1024)

    with DB(MemStorage(), options, compaction_spec=spec) as db:
        # -- basic operations ------------------------------------------
        db.put(b"user:alice", b"alice@example.com")
        db.put(b"user:bob", b"bob@example.com")
        print("get user:alice ->", db.get(b"user:alice"))

        # Atomic multi-key writes.
        batch = WriteBatch()
        batch.put(b"user:carol", b"carol@example.com")
        batch.delete(b"user:bob")
        db.write(batch)
        print("after batch, user:bob ->", db.get(b"user:bob"))

        # -- snapshots ---------------------------------------------------
        with db.snapshot() as snap:
            db.put(b"user:alice", b"alice@new-domain.example")
            print("current     alice ->", db.get(b"user:alice"))
            print("at snapshot alice ->", db.get(b"user:alice", snapshot=snap))

        # -- bulk load to exercise flushes + pipelined compactions -------
        import random

        order = list(range(5000))
        random.Random(42).shuffle(order)
        for i in order:
            db.put(b"item:%06d" % i, b"payload-%d" % i * 4)

        print("\ntree shape after load:")
        print(db.describe())
        # Every count the engine keeps is in its metrics registry; a
        # counter appears once it has counted something.
        metrics = db.metrics_snapshot()
        count = metrics["counters"].get
        print(
            f"\nflushes={count('db.flushes', 0)}  "
            f"compactions={count('db.compactions', 0)} "
            f"(trivial moves={count('compaction.trivial_moves', 0)})"
        )
        busy = metrics["histograms"].get("compaction.seconds", {}).get("sum")
        bandwidth = count("compaction.input_bytes", 0) / busy if busy else 0.0
        print(
            "compaction bandwidth (functional, wall-clock): "
            f"{bandwidth / 1e6:.1f} MB/s"
        )

        # -- ordered scans ------------------------------------------------
        some = list(db.scan(b"item:001000", b"item:001005"))
        print("\nscan [item:001000, item:001005):")
        for key, value in some:
            print(" ", key, "->", value[:16], "...")

        # Reads see through memtable, L0, and deeper levels alike.
        assert db.get(b"item:004999") == b"payload-4999" * 4
        print("\nquickstart OK")


if __name__ == "__main__":
    main()
