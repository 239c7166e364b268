"""The compaction's durability barrier, checked from the storage's view.

``compact_tables`` syncs its output tables as a group: each finished
table is held open unsynced, and the group is synced (then closed) when
the sink holds :data:`MAX_HELD_TABLES` of them and once more before the
call returns.  A :class:`RecordingStorage` logs every create, append,
sync and close, and the tests read the contract off that log: every
output's last sync follows its last append and precedes the return, one
sync per output, never more than the cap open at once — and a failed
compaction leaves no handle open.  At the DB level, a sync that fails
inside a barrier is retried and leaves nothing behind.
"""

import itertools
import random

import pytest

from repro.core.procedures import ProcedureSpec, compact_tables
from repro.db import DB
from repro.db.verify import verify_db
from repro.devices import MemStorage
from repro.devices.faults import FaultPlan, FaultyStorage, TransientIOError
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table
from repro.lsm.table_sink import MAX_HELD_TABLES

from tests.helpers import RecordingStorage, small_options

SUBTASK_BYTES = 2048
#: Outputs of about two blocks each: a compaction cuts well over
#: 2 * MAX_HELD_TABLES of them, so the cap is reached at least twice.
OPTIONS = Options(block_bytes=512, sstable_bytes=1024, compression="lz77")

PROCEDURES = {
    "scp": ProcedureSpec.scp(subtask_bytes=SUBTASK_BYTES),
    "pcp": ProcedureSpec.pcp(subtask_bytes=SUBTASK_BYTES),
    "cppcp2-process": ProcedureSpec.cppcp(
        2, subtask_bytes=SUBTASK_BYTES, backend="process"
    ),
}


def _inputs(storage):
    """Two overlapping tables (newer first), written straight to ``storage``."""
    tables = []
    for name, keys, seq, tag in (
        ("u.sst", range(0, 4000, 2), 9, b"new"),
        ("l.sst", range(0, 4000, 3), 1, b"old"),
    ):
        with storage.create(name) as f:
            builder = TableBuilder(f, OPTIONS)
            for i in keys:
                builder.add(
                    encode_internal_key(b"key-%05d" % i, seq, KIND_VALUE),
                    b"%s-%d" % (tag, i) * 4,
                )
            builder.finish()
        tables.append(Table(storage.open(name), OPTIONS))
    return tables


def _compact(tables, storage, spec):
    numbers = itertools.count(100)
    return compact_tables(
        tables, storage, OPTIONS,
        file_namer=lambda: f"{next(numbers):06d}.sst", spec=spec,
    )


def _last(log, op, name):
    return max(i for i, entry in enumerate(log) if entry == (op, name))


@pytest.mark.parametrize("procedure", list(PROCEDURES))
def test_every_output_synced_after_its_last_append(procedure):
    inner = MemStorage()
    tables = _inputs(inner)
    storage = RecordingStorage(inner)
    outputs, _stats, _ = _compact(tables, storage, PROCEDURES[procedure])
    returned = len(storage.log)  # what was logged before the return

    assert len(outputs) > 2 * MAX_HELD_TABLES
    log = storage.log
    syncs = [name for op, name in log if op == "sync"]
    assert sorted(syncs) == sorted(m.name for m in outputs)  # one each
    for meta in outputs:
        assert _last(log, "append", meta.name) < _last(log, "sync", meta.name) < returned
        assert _last(log, "sync", meta.name) < _last(log, "close", meta.name)
    # Synced as a group, not one by one: the first sync waits for the
    # cap's worth of finished tables, and the cap bounds what is open.
    first_sync = log.index(("sync", syncs[0]))
    assert _last(log, "append", outputs[MAX_HELD_TABLES - 1].name) < first_sync
    assert storage.max_open == MAX_HELD_TABLES
    assert storage.open_files == 0


@pytest.mark.parametrize("procedure", ["scp", "pcp"])
@pytest.mark.parametrize("op", ["write", "sync"])
def test_failed_compaction_closes_every_output(procedure, op):
    """A failure mid-write or inside a group barrier propagates with no
    output handle left open and nothing synced after it; the files stay
    for the caller to delete."""
    inner = MemStorage()
    tables = _inputs(inner)
    faulty = FaultyStorage(inner)
    storage = RecordingStorage(faulty)
    # Past the first group: some outputs synced and closed, others held,
    # and on a write failure one half written.
    nth = {"write": 200, "sync": MAX_HELD_TABLES + 2}[op]
    logged_as = {"write": "append", "sync": "sync"}[op]
    faulty.arm(FaultPlan(fail_nth={op: nth}))
    with pytest.raises(TransientIOError):
        _compact(tables, storage, PROCEDURES[procedure])

    assert storage.open_files == 0
    log = storage.log
    failed = [i for i, (o, _) in enumerate(log) if o == logged_as][nth - 1]
    assert all(o == "close" for o, _ in log[failed + 1:])
    created = [name for o, name in log if o == "create"]
    assert len(created) > MAX_HELD_TABLES
    assert all(inner.exists(name) for name in created)


@pytest.mark.parametrize("procedure", list(PROCEDURES))
def test_db_retries_a_sync_failed_inside_the_barrier(procedure):
    """A sync that fails inside a compaction's group barrier, after
    another output of the group synced: the compaction retries, no
    partial output outlives it, no acked write is lost and the store
    verifies clean."""
    faulty = FaultyStorage(MemStorage())
    storage = RecordingStorage(faulty)
    opts = small_options(
        sstable_bytes=2048, l0_compaction_trigger=100, l0_stop_writes_trigger=200,
    )
    db = DB(storage, opts, sync_every=1, compaction_spec=PROCEDURES[procedure])
    order = list(range(700))
    random.Random(5).shuffle(order)
    for i in order:
        db.put(b"key-%04d" % i, b"v-%d" % i)
    db.flush()

    start = len(storage.log)
    faulty.arm(FaultPlan(fail_nth={"sync": 2}))
    db.compact_range()
    faulty.disarm()
    log = storage.log[start:]
    first, second = [i for i, (op, _) in enumerate(log) if op == "sync"][:2]
    # Two outputs synced back to back, one barrier; the second failed.
    assert log[first][1].endswith(".sst") and log[second][1].endswith(".sst")
    assert log[first][1] != log[second][1]
    assert {op for op, _ in log[first:second + 1]} == {"sync"}
    assert faulty.injected == {"sync": 1}
    assert db.obs.metrics.counter("compaction.retries").value == 1
    live = {meta.name for _, meta in db.version.all_files()}
    assert {n for n in storage.list() if n.endswith(".sst")} == live
    for i in range(700):
        assert db.get(b"key-%04d" % i) == b"v-%d" % i
    db.close()
    report = verify_db(storage, opts)
    assert report.ok and not report.warnings, report.render()
