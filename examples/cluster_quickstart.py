"""Run a 4-shard sharded engine and read it through one server socket.

Demonstrates the ``repro.cluster`` subsystem end to end:

1. open a 4-shard :class:`repro.cluster.ShardedDB` (hash-partitioned,
   background C-PPCP compaction, each shard compacting as one DB does),
2. serve it over TCP — the wire protocol is unchanged; clients cannot
   tell a cluster from a single DB,
3. load YCSB keys and read them back: routed gets, grouped multi_get,
   and a cross-shard SCAN that comes back globally key-ordered from
   the k-way merge of the shards' scans,
4. inspect per-shard stats and the shard-dimensioned metrics the
   STATS opcode now carries,
5. shut down gracefully and reopen — the CLUSTER manifest remembers
   the layout.

Run:  PYTHONPATH=src python examples/cluster_quickstart.py
"""

from repro.cluster import ShardedDB
from repro.core.procedures import ProcedureSpec
from repro.lsm import Options
from repro.server import ServerThread, SyncClient
from repro.workload.ycsb import YCSBWorkload

N_SHARDS = 4

OPTIONS = Options(
    memtable_bytes=32 * 1024,
    sstable_bytes=16 * 1024,
    block_bytes=2 * 1024,
    level1_bytes=128 * 1024,
    level_multiplier=4,
)


def main() -> None:
    db = ShardedDB.in_memory(
        N_SHARDS,
        options=OPTIONS,
        compaction_spec=ProcedureSpec.cppcp(2, subtask_bytes=16 * 1024),
        background=True,
    )
    print(f"opened {db.n_shards} shards, partitioner={db.partitioner.spec()}")

    workload = YCSBWorkload("a", n_ops=0, record_count=2000, value_bytes=64)
    with ServerThread(db) as handle:
        with SyncClient(handle.host, handle.port) as client:
            # Load through the socket: the server routes each key.
            batch = []
            for key, value in workload.load_phase():
                batch.append(("put", key, value))
                if len(batch) >= 256:
                    client.batch(batch)
                    batch.clear()
            if batch:
                client.batch(batch)
            print(f"loaded {workload.record_count} records over the wire")

            # Point reads are routed to the owning shard.
            from repro.workload.keys import format_key

            assert client.get(format_key(42)) is not None
            print("routed get: OK")

            # A cross-shard scan comes back globally ordered.
            pairs, truncated = client.scan(limit=100)
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys) and len(keys) == 100
            print(f"cross-shard scan: first {len(keys)} keys globally "
                  f"ordered (truncated={truncated})")

            stats = client.stats()
            cluster = stats["cluster"]
            print(f"cluster stats: {cluster['n_shards']} shards, "
                  f"stalled={cluster['stalled_shards']}")
            for entry in cluster["shards"]:
                print(f"  shard {entry['shard']}: writes={entry['writes']} "
                      f"l0_files={entry['l0_files']} "
                      f"bytes={entry['total_bytes']}")

    # Embedded use: multi_get groups keys into one batch per shard,
    # and a ClusterSnapshot pins a stable view on every shard.
    db2 = ShardedDB.in_memory(2, options=OPTIONS)
    for i in range(10):
        db2.put(b"k%02d" % i, b"v%02d" % i)
    values = db2.multi_get([b"k03", b"missing", b"k07"])
    assert values == [b"v03", None, b"v07"]
    with db2.snapshot() as snap:
        db2.put(b"k99", b"late")
        frozen = [k for k, _ in db2.scan(snapshot=snap)]
        assert b"k99" not in frozen
    print("embedded multi_get + cluster snapshot isolation: OK")
    db2.close()
    print("done")


if __name__ == "__main__":
    main()
