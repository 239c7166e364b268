"""The STATS document, pinned to a golden.

One scripted session — PUTs, a BATCH, a DELETE, GETs that hit and
miss, a SCAN, a flush, a compaction, one STALLED write and one
malformed frame — runs against three served stores: a ``DB``, a
3-shard local ``ShardedDB``, and ``ShardedDB.from_shards`` over two
``RemoteShard``s.  ``stats_golden.json`` holds what STATS reported for
it at commit 5ead13d, before the counts moved into the metrics
registry; the document must not change.  The values that follow the
table format (``total_bytes``, ``db.flush_bytes`` and the store's
``io.mem`` byte and op counts) were re-recorded twice since: when each
data block's bloom filter piece moved into the index and the filter
block was written empty, and when each index entry took its block's
facts (first key, entry count, plain bit).

Only values that depend on timing are dropped: a latency or duration
histogram keeps its sample count, and the STATS / METRICS opcodes'
own ``bytes_out`` (the size of a document holding latencies) is left
out.  Counters that did not exist at that commit (``db.writes``,
``db.gets``, ``db.compactions``) are left out of the ``engine``
section, and so is the remote cluster's whole ``engine`` section,
which then held only its clients' counters; the test in
``tests/replication/test_shardlike.py`` checks what it holds now.

Regenerate (only when the document is meant to change) with
``PYTHONPATH=src python -m tests.server.test_stats_golden``.
"""

import json
import socket
import struct
import sys
import time
from pathlib import Path

import pytest

from repro.cluster import ShardedDB
from repro.db import DB
from repro.devices import MemStorage
from repro.replication import RemoteShard
from repro.server import ServerBusyError, SyncClient
from repro.server.server import ServerThread

from tests.helpers import small_options

GOLDEN = Path(__file__).with_name("stats_golden.json")

#: Registry counters added after the golden was recorded.
_NEW_COUNTERS = ("db.writes", "db.gets", "db.compactions")

#: Opcodes whose response is a document with latencies in it.
_DOCUMENT_OPS = ("STATS", "METRICS")


def _options():
    return small_options(memtable_bytes=4096, sstable_bytes=4096)


def _wait_closed(handle, n: int) -> None:
    deadline = time.monotonic() + 10
    while handle.server._stats_dict()["server"]["connections_closed"] < n:
        assert time.monotonic() < deadline, "connection close not counted"
        time.sleep(0.01)


def _session(handle, db) -> dict:
    """Drive the scripted session; return STATS and the properties."""
    with SyncClient(handle.host, handle.port, max_retries=0) as client:
        for i in range(200):
            client.put(b"key%04d" % i, b"value%04d" % i * 4)
        client.batch(
            [("put", b"batch-a", b"1"), ("put", b"batch-b", b"2"),
             ("delete", b"key0000")]
        )
        client.delete(b"key0001")
        for i in range(0, 200, 7):
            client.get(b"key%04d" % i)
        for i in range(10):
            client.get(b"missing%02d" % i)
        client.scan(b"key0050", b"key0080")
        client.flush()
        client.compact()
        for i in range(0, 200, 11):
            client.get(b"key%04d" % i)

        db.write_stalled = lambda keys=None: True
        try:
            with pytest.raises(ServerBusyError):
                client.put(b"stalled", b"x")
        finally:
            del db.write_stalled

        with socket.create_connection((handle.host, handle.port)) as sock:
            sock.sendall(struct.pack("<I", 8) + b"garbage!" + b"\x00" * 4)
            sock.settimeout(10)
            assert sock.recv(1) == b""  # the server dropped the stream
        _wait_closed(handle, 1)
        stats = client.stats()
    return {"stats": stats}


def _served(kind: str) -> dict:
    if kind == "db":
        db = DB(MemStorage(), _options())
        with ServerThread(db) as handle:
            return _session(handle, db)
    if kind == "sharded":
        db = ShardedDB(
            MemStorage(), [MemStorage() for _ in range(3)], options=_options()
        )
        with ServerThread(db) as handle:
            return _session(handle, db)
    backends = [
        ServerThread(DB(MemStorage(), _options())).start() for _ in range(2)
    ]
    try:
        db = ShardedDB.from_shards(
            [RemoteShard(b.host, b.port) for b in backends]
        )
        with ServerThread(db) as handle:
            return _session(handle, db)
    finally:
        for backend in backends:
            backend.stop()


def _histogram_count(snapshot: dict) -> dict:
    return {"count": snapshot.get("count", 0)}


def _normalise(kind: str, result: dict) -> dict:
    """Drop what depends on timing or on counters added since."""
    stats = result["stats"]
    for name, op in stats["server"]["ops"].items():
        op["latency"] = _histogram_count(op["latency"])
        if name in _DOCUMENT_OPS:
            del op["bytes_out"]
    if kind == "remote":
        del stats["engine"]
    else:
        engine = stats["engine"]
        engine["counters"] = {
            name: value
            for name, value in engine["counters"].items()
            if not name.endswith(_NEW_COUNTERS)
        }
        engine["histograms"] = {
            name: _histogram_count(h) for name, h in engine["histograms"].items()
        }
    return result


KINDS = ("db", "sharded", "remote")


@pytest.mark.parametrize("kind", KINDS)
def test_stats_document_matches_the_golden(kind):
    golden = json.loads(GOLDEN.read_text())[kind]
    assert _normalise(kind, _served(kind)) == golden


if __name__ == "__main__":
    out = {kind: _normalise(kind, _served(kind)) for kind in KINDS}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
