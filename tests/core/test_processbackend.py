"""Tests for the process-pool compute backend (real parallelism)."""

import itertools

import pytest

from repro.core.backends.threadbackend import run_subtask_compute, run_subtask_read
from repro.core.procedures import ProcedureSpec, compact_tables
from repro.core.subtask import partition_subtasks
from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table

MP_SPEC = ProcedureSpec.cppcp(k=2, subtask_bytes=2048, backend="process")


def _ik(user, seq=1):
    return encode_internal_key(user, seq, KIND_VALUE)


@pytest.fixture(scope="module")
def inputs():
    storage = MemStorage()
    options = Options(block_bytes=512, sstable_bytes=4096, compression="lz77")

    def build(name, rng, seq, tag):
        with storage.create(name) as f:
            builder = TableBuilder(f, options)
            for i in rng:
                builder.add(_ik(b"key-%05d" % i, seq), b"%s-%d" % (tag, i) * 4)
            builder.finish()
        return Table(storage.open(name), options)

    upper = build("u.sst", range(0, 600, 2), 9, b"new")
    lower = build("l.sst", range(0, 600, 3), 1, b"old")
    return storage, options, upper, lower


def test_compute_remote_is_picklable_roundtrip(inputs):
    """What crosses the process boundary survives pickling, and the
    worker function runs on the unpickled copy."""
    import pickle

    storage, options, upper, lower = inputs
    subtask = partition_subtasks([upper, lower], 2048)[0]
    args = (
        run_subtask_read(subtask), subtask.index, subtask.lower, subtask.upper,
        len(subtask.runs), options.compression, options.checksum,
        options.block_bytes, options.block_restart_interval, False, None,
    )
    fn, shipped = pickle.loads(pickle.dumps((run_subtask_compute, args)))
    encoded, seconds = pickle.loads(pickle.dumps(fn(*shipped)))
    assert encoded
    assert all(b.num_entries > 0 for b in encoded)
    assert seconds > 0


def test_mp_output_identical_to_scp(inputs):
    storage, options, upper, lower = inputs
    c1 = itertools.count(1)
    scp_out, _, _ = compact_tables(
        [upper, lower], storage, options,
        file_namer=lambda: f"scp-{next(c1):04d}.sst",
        spec=ProcedureSpec.scp(subtask_bytes=2048),
    )
    c2 = itertools.count(1)
    mp_out, stats, subtasks = compact_tables(
        [upper, lower], storage, options,
        file_namer=lambda: f"mp-{next(c2):04d}.sst", spec=MP_SPEC,
    )
    assert stats.n_subtasks == len(subtasks)
    scp_bytes = [storage.open(m.name).read_all() for m in scp_out]
    mp_bytes = [storage.open(m.name).read_all() for m in mp_out]
    assert scp_bytes == mp_bytes


def test_mp_empty_subtasks(inputs):
    """A key range that selects nothing: no sub-task, no output file."""
    storage, options, upper, lower = inputs
    outputs, stats, subtasks = compact_tables(
        [upper, lower], storage, options, file_namer=lambda: "never.sst",
        spec=MP_SPEC, lower=b"zzz",
    )
    assert subtasks == []
    assert stats.n_subtasks == 0
    assert outputs == []
    assert not storage.exists("never.sst")


def test_mp_worker_exception_propagates(inputs):
    """Corrupt input: the worker's checksum failure reaches the caller."""
    storage, options, upper, lower = inputs
    data = bytearray(storage.open("u.sst").read_all())
    data[10] ^= 0x01
    bad_storage = MemStorage()
    with bad_storage.create("u.sst") as f:
        f.append(bytes(data))
    bad_upper = Table(
        bad_storage.open("u.sst"),
        Options(block_bytes=512, compression="lz77", paranoid_checks=False),
    )
    from repro.lsm.table_format import TableCorruption

    with pytest.raises(TableCorruption):
        compact_tables(
            [bad_upper], storage, options, file_namer=lambda: "bad.sst",
            spec=MP_SPEC,
        )


def test_spec_backend_validation():
    with pytest.raises(ValueError):
        ProcedureSpec.pcp(backend="gpu")
    with pytest.raises(ValueError):
        ProcedureSpec(kind="scp", backend="process")
    spec = ProcedureSpec.cppcp(k=2, backend="process")
    assert spec.backend == "process"


def test_db_with_process_backend():
    """End to end: the DB compacts through worker processes."""
    from repro.db import DB
    from repro.lsm.options import Options
    import random

    options = Options(
        memtable_bytes=16 * 1024, sstable_bytes=8 * 1024, block_bytes=1024,
        level1_bytes=32 * 1024, level_multiplier=4, compression="lz77",
    )
    spec = ProcedureSpec.cppcp(k=2, subtask_bytes=8 * 1024, backend="process")
    with DB(MemStorage(), options, compaction_spec=spec) as db:
        order = list(range(1200))
        random.Random(4).shuffle(order)
        for i in order:
            db.put(b"key-%05d" % i, b"value-%d" % i)
        assert db.obs.metrics.counter("db.compactions").value > 0
        for i in range(0, 1200, 111):
            assert db.get(b"key-%05d" % i) == b"value-%d" % i
