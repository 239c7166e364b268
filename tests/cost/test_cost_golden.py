"""Python calls per engine operation, pinned to a golden.

Wall clock drifts between runs and machines; the number of Python calls
an operation makes does not.  Each row counts ``call`` and ``c_call``
events under ``sys.setprofile`` (a generator resuming is a ``call``)
while a synchronous ``DB`` on ``MemStorage`` serves one kind of
operation, 1 KB values, fixed seed:

* ``put`` — PUTs into an empty store, flushes and compactions included;
* ``get_cached`` — GETs whose block is in the block cache;
* ``get_uncached`` — GETs that each miss the block cache, on a fully
  compacted store whose tables are already open;
* ``scan`` / ``scan_reverse`` — 20-entry scans, ascending from a
  seeded start key or descending below it, on the same store;
* ``server_get_inline`` — the ``get_cached`` GET as a wire request:
  each payload decoded and answered by ``KVServer._handle_request``
  without waiting, on the loop-free server (no socket, no loop);
* ``frame_codec`` — one GET request frame and its response frame,
  encoded and decoded with the ``protocol`` functions ``perf`` times;
* ``scan_codec`` — the ``scan`` row's scans as wire frames: each SCAN
  request frame and its 20-pair response frame, encoded and decoded
  with the SCAN body codec and the same frame functions;
* ``compact_scp`` — one SCP ``compact_tables`` merge of two tables
  on their own store: even keys 0–598 over odd keys 1–399, so half the
  range interleaves; ops are input blocks;
* ``compact_splice`` — the same on ``perf``'s ``compact`` shape: every
  key in 0–199 over the even keys in 0–398, 16 KiB sub-tasks, so the
  lower run's upper half passes through as stored; ops are input blocks;
* ``flush`` — ``DB.flush()`` of a memtable just short of full, on its
  own store that compacts nothing; each memtable is filled uncounted,
  and ops are flushes.

Counts miss work done in C (zlib, CRC, bisect) and waits; they are a
second yardstick beside ``perf/run.py``, not a replacement.  The golden
is keyed by Python minor version, since the interpreter changes what a
call is; on a minor version it lacks, the test is skipped.  So is a run
under either sanitizer, whose instrumented locks add calls.

Re-record (only when a change is meant to move a count, and list each
row's old and new value with the change) with
``PYTHONPATH=src python -m tests.cost.test_cost_golden``.
"""

import gc
import json
import random
import sys
import time
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from repro.analysis import race_sanitizer_enabled, sanitizer_enabled
from repro.core.procedures import ProcedureSpec, compact_tables
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table
from repro.server import protocol as P
from repro.server.server import KVServer

GOLDEN = Path(__file__).with_name("cost_golden.json")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

SEED = 1
KEYS = 1000
GETS = 200
SCANS = 50
SCAN_LENGTH = 20
FLUSHES = 8
MEMTABLE_KEYS = 56  # 1 KB values: just short of the 64 KiB memtable


def _options() -> Options:
    return Options(
        memtable_bytes=64 * 1024, compression="lz77", block_cache_entries=16
    )


def _calls(fn) -> int:
    """Python and C calls made while ``fn()`` runs (collector off)."""
    n = 0

    def profile(frame, event, arg):
        nonlocal n
        if event == "call" or event == "c_call":
            n += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return n


def _misses(db: DB) -> int:
    return db.obs.metrics.counter("cache.misses").value


def measure() -> dict:
    """One fresh store, each row as ``{"ops": n, "calls": total}``."""
    rng = random.Random(SEED)
    keys = [b"key%06d" % i for i in range(KEYS)]
    order = keys[:]
    rng.shuffle(order)
    values = {key: rng.randbytes(256) * 4 for key in keys}
    db = DB(MemStorage(), _options())
    try:
        def puts():
            for key in order:
                db.put(key, values[key])

        rows = {"put": {"ops": KEYS, "calls": _calls(puts)}}
        assert db.obs.metrics.counter("db.compactions").value > 0

        db.compact_range()
        for key in keys:  # open every table; the cache ends cold
            assert db.get(key) == values[key]
        # Strided through sorted keys, consecutive GETs land in
        # different blocks, cycling through more than the cache holds.
        stride = keys[::5][:GETS]
        misses = _misses(db)

        def uncached():
            for key in stride:
                db.get(key)

        rows["get_uncached"] = {"ops": GETS, "calls": _calls(uncached)}
        assert _misses(db) - misses == GETS

        hot = keys[0]
        db.get(hot)
        misses = _misses(db)

        def cached():
            for _ in range(GETS):
                db.get(hot)

        rows["get_cached"] = {"ops": GETS, "calls": _calls(cached)}
        assert _misses(db) == misses

        server = KVServer(db, own_db=False)
        request = P.encode_request(P.OP_GET, 7, P.encode_lp(hot))
        payloads = [P.decode_frame(P.frame_length(request[:4]), request[4:])] * GETS
        state = {"inflight": 0}
        replies = []

        def served():
            for payload in payloads:
                coro = server._handle_request(
                    P.decode_request(payload), P.FRAME_OVERHEAD + len(payload),
                    state, time.perf_counter(), wait=False,
                )
                try:
                    coro.send(None)
                except StopIteration as done:
                    replies.append(done.value)

        rows["server_get_inline"] = {"ops": GETS, "calls": _calls(served)}
        assert replies == [P.encode_response(P.ST_OK, 7, P.encode_lp(values[hot]))] * GETS

        decoded = []

        def codec():
            for request_id in range(GETS):
                frame = P.encode_request(P.OP_GET, request_id, P.encode_lp(hot))
                P.decode_request(P.decode_frame(P.frame_length(frame[:4]), frame[4:]))
                frame = P.encode_response(P.ST_OK, request_id, P.encode_lp(values[hot]))
                decoded.append(
                    P.decode_response(P.decode_frame(P.frame_length(frame[:4]), frame[4:]))
                )

        rows["frame_codec"] = {"ops": GETS, "calls": _calls(codec)}
        assert [r.request_id for r in decoded] == list(range(GETS))

        # Starts at least SCAN_LENGTH keys from either end: every scan
        # returns SCAN_LENGTH pairs in both directions.
        starts = [
            keys[rng.randrange(SCAN_LENGTH, KEYS - SCAN_LENGTH)]
            for _ in range(SCANS)
        ]
        got = []

        def scans():
            for start in starts:
                got.append(list(islice(db.scan(start), SCAN_LENGTH)))

        def reverse_scans():
            for start in starts:
                got.append(list(islice(db.scan_reverse(None, start), SCAN_LENGTH)))

        rows["scan"] = {"ops": SCANS, "calls": _calls(scans)}
        rows["scan_reverse"] = {"ops": SCANS, "calls": _calls(reverse_scans)}
        assert [len(pairs) for pairs in got] == [SCAN_LENGTH] * 2 * SCANS

        results = []

        def scan_codec():
            for request_id, (start, pairs) in enumerate(zip(starts, got)):
                body = P.encode_scan_body(start, None, SCAN_LENGTH, False)
                frame = P.encode_request(P.OP_SCAN, request_id, body)
                request = P.decode_request(
                    P.decode_frame(P.frame_length(frame[:4]), frame[4:])
                )
                P.decode_scan_body(request.body)
                body = P.encode_scan_result(pairs, False)
                frame = P.encode_response(P.ST_OK, request_id, body)
                response = P.decode_response(
                    P.decode_frame(P.frame_length(frame[:4]), frame[4:])
                )
                results.append(P.decode_scan_result(response.body))

        rows["scan_codec"] = {"ops": SCANS, "calls": _calls(scan_codec)}
        assert results == [(pairs, False) for pairs in got[:SCANS]]
    finally:
        db.close()
    rows["compact_scp"] = _compact_row(rng)
    rows["compact_splice"] = _splice_row()
    rows["flush"] = _flush_row()
    return rows


def _flush_row() -> dict:
    """FLUSHES flushes of a full memtable, ops = flushes."""
    rng = random.Random(SEED)
    options = replace(
        _options(),
        l0_compaction_trigger=FLUSHES + 1,
        l0_stop_writes_trigger=FLUSHES + 1,
    )
    db = DB(MemStorage(), options)
    try:
        calls = 0
        for n in range(FLUSHES):
            keys = [b"key%06d" % (n * MEMTABLE_KEYS + i) for i in range(MEMTABLE_KEYS)]
            rng.shuffle(keys)
            for key in keys:
                db.put(key, rng.randbytes(256) * 4)
            calls += _calls(db.flush)
        assert db.version.num_files(0) == FLUSHES
    finally:
        db.close()
    return {"ops": FLUSHES, "calls": calls}


def _merge_row(rng: random.Random, upper_keys, lower_keys, subtask_bytes: int = 1 << 20):
    """One SCP merge of two seeded tables on their own store, the upper
    one newest: the row (ops = input blocks), the entries it wrote, and
    its stats."""
    storage = MemStorage()
    options = _options()

    def table(name, numbers, seq):
        with storage.create(name) as f:
            builder = TableBuilder(f, options)
            for i in numbers:
                ikey = encode_internal_key(b"key%06d" % i, seq, KIND_VALUE)
                builder.add(ikey, rng.randbytes(256) * 4)
            builder.finish()
        return Table(storage.open(name), options)

    upper = table("upper.sst", upper_keys, 2)
    lower = table("lower.sst", lower_keys, 1)
    names = (f"{n:06d}.sst" for n in range(100, 1000))
    result = []

    def compact():
        result.append(
            compact_tables(
                [upper, lower], storage, options, lambda: next(names),
                spec=ProcedureSpec.scp(subtask_bytes=subtask_bytes),
            )
        )

    calls = _calls(compact)
    outputs, stats, _ = result[0]
    merged = sum(len(list(Table(storage.open(m.name), options))) for m in outputs)
    return {"ops": upper.num_blocks() + lower.num_blocks(), "calls": calls}, merged, stats


def _compact_row(rng: random.Random) -> dict:
    """Even keys 0–598 over odd keys 1–399."""
    row, merged, _ = _merge_row(rng, range(0, 600, 2), range(1, 400, 2))
    assert merged == 500
    return row


def _splice_row() -> dict:
    """The ``compact`` shape: every key in 0–199 over the even keys in
    0–398, in sub-tasks small enough to fence off the lower run's upper
    half."""
    row, merged, stats = _merge_row(
        random.Random(SEED), range(200), range(0, 400, 2), subtask_bytes=16 * 1024
    )
    assert merged == 300
    assert stats.passthrough_blocks > 0
    return row


@pytest.mark.skipif(
    race_sanitizer_enabled() or sanitizer_enabled(),
    reason="instrumented locks add calls",
)
def test_calls_per_operation_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    if PYTHON not in golden:
        pytest.skip(f"no golden for Python {PYTHON}")
    t0 = time.perf_counter()
    runs = [measure() for _ in range(3)]
    elapsed = time.perf_counter() - t0
    assert runs[0] == runs[1] == runs[2], "counts differ between runs"
    assert runs[0] == golden[PYTHON]
    assert elapsed < 10.0, f"cost golden took {elapsed:.1f} s"


if __name__ == "__main__":
    rows = measure()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[PYTHON] = rows
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for name, row in sorted(rows.items()):
        print(f"{name}: {row['calls'] / row['ops']:.1f} calls/op", file=sys.stderr)
    print(f"wrote {GOLDEN}", file=sys.stderr)
