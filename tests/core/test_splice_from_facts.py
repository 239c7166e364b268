"""The splice decided from the index: a block whose facts show no other
run near it skips S3 and S4's decode, counts as ``passthrough``, and
the output is the one the decode-based decision writes.

The oracle is the same inputs compacted with :func:`spliced_by_facts`
marking nothing, so every block takes S3 and S4: they must give the
same data blocks, entries and number of spliced blocks.
"""

import itertools
from unittest import mock

from hypothesis import HealthCheck, given, settings

from repro.core import steps
from repro.core.backends import threadbackend
from repro.core.procedures import ProcedureSpec, compact_tables
from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE
from repro.lsm.options import Options
from repro.lsm.table_reader import Table
from repro.workload import ValueGenerator, format_key
from tests.core.test_passthrough import (
    OPTIONS,
    SUBTASK_BYTES,
    build,
    reference_merge,
    run_sets,
    stored_blocks,
    user_key,
    values,
)


def compact(storage, tables, prefix, options=OPTIONS, subtask_bytes=SUBTASK_BYTES, **kw):
    """SCP; returns (data blocks, entries, stats, sub-tasks)."""
    numbers = itertools.count(1)
    outputs, stats, subtasks = compact_tables(
        tables, storage, options, file_namer=lambda: f"{prefix}-{next(numbers):04d}.sst",
        spec=ProcedureSpec.scp(subtask_bytes=subtask_bytes), **kw,
    )
    out_tables = [Table(storage.open(m.name), options) for m in outputs]
    blocks = [block for t in out_tables for block in stored_blocks(t)]
    entries = [e for t in out_tables for e in t]
    return blocks, entries, stats, subtasks


def spliced(stats):
    return stats.passthrough_blocks + stats.reused_blocks


def marks_nothing(stored, *_args):
    return [False] * len(stored)


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=run_sets())
def test_facts_write_what_the_decode_writes(case):
    runs, drop_deletes, snapshot = case
    storage = MemStorage()
    tables = [build(storage, f"in-{r}.sst", run) for r, run in enumerate(runs)]
    kw = dict(drop_deletes=drop_deletes, smallest_snapshot=snapshot)
    blocks, entries, stats, _ = compact(storage, tables, "facts", **kw)
    with mock.patch.object(threadbackend, "spliced_by_facts", marks_nothing):
        decoded_blocks, decoded_entries, decoded_stats, _ = compact(
            storage, tables, "decoded", **kw
        )
    assert decoded_stats.passthrough_blocks == 0
    assert entries == reference_merge(runs, drop_deletes, snapshot)
    assert entries == decoded_entries
    assert blocks == decoded_blocks
    assert spliced(stats) == spliced(decoded_stats)


def count_decompressed(monkeypatch):
    """The stored blocks S3 decompresses from now on."""
    decompressed = []
    decompress = steps.decompress_block

    def counting(stored):
        decompressed.append(stored)
        return decompress(stored)

    monkeypatch.setattr(steps, "decompress_block", counting)
    return decompressed


def test_short_lone_stretch_in_a_multi_run_subtask_passes_through(monkeypatch):
    """The lower run's blocks between the key ranges of two newer runs
    are spliced from their facts, never decompressed, inside the one
    sub-task all three runs share: no sub-task of their own is needed."""
    runs = [values(0, 100, seq=3), values(300, 400, seq=2), values(0, 400)[::2]]
    storage = MemStorage()
    tables = [build(storage, f"in-{r}.sst", run) for r, run in enumerate(runs)]
    lower = tables[-1]
    lone = {
        block
        for block, f in zip(stored_blocks(lower), lower.block_facts(lower.block_handles()))
        if user_key(99) < f.first_key[:-8] and f.last_key[:-8] < user_key(300)
    }
    decompressed = count_decompressed(monkeypatch)
    blocks, entries, stats, subtasks = compact(storage, tables, "out", subtask_bytes=1 << 20)
    (subtask,) = subtasks
    assert all(run.handles for run in subtask.runs)
    assert len(lone) >= 10
    assert 8 * sum(map(len, lone)) < 1 << 20  # short beside the sub-task
    assert stats.passthrough_blocks == len(lone)
    assert stats.passthrough_bytes == sum(map(len, lone))
    assert lone <= set(blocks)
    assert not lone & set(decompressed)
    assert len(decompressed) == sum(t.num_blocks() for t in tables) - len(lone)
    assert entries == reference_merge(runs, False, None)


# --- the ``compact`` shape ---------------------------------------------------

#: The ``compact`` benchmark's shape at its default size: 15,000 keys of
#: 16 bytes with 100-byte values in the upper run, the even keys of twice
#: the range in the lower run, 64 KiB sub-tasks.
COMPACT_KEYS = 15_000
COMPACT_OPTIONS = Options(
    memtable_bytes=64 * 1024, sstable_bytes=32 * 1024, block_bytes=4096,
    compression="lz77", checksum="crc32", compaction_policy=None, block_cache_entries=0,
)


def _compact_value(gen, index, version):
    return b"%016d:%06d:" % (index, version) + gen.value_for(index * 1_000_003 + version)


def test_compact_shape_passes_blocks_through_undecoded(monkeypatch):
    gen = ValueGenerator(100 - 24, seed=1)
    storage = MemStorage()
    upper = [
        (format_key(i), 2, KIND_VALUE, _compact_value(gen, i, 1)) for i in range(COMPACT_KEYS)
    ]
    lower = [
        (format_key(i), 1, KIND_VALUE, _compact_value(gen, i, 0))
        for i in range(0, 2 * COMPACT_KEYS, 2)
    ]
    tables = [
        build(storage, "upper.sst", upper, COMPACT_OPTIONS),
        build(storage, "lower.sst", lower, COMPACT_OPTIONS),
    ]
    decompressed = count_decompressed(monkeypatch)
    numbers = itertools.count(1)
    outputs, stats, subtasks = compact_tables(
        tables, storage, COMPACT_OPTIONS, file_namer=lambda: f"{next(numbers):06d}.sst",
        spec=ProcedureSpec.scp(subtask_bytes=64 * 1024),
    )
    assert sum(t.num_blocks() for t in tables) == 834
    assert (stats.passthrough_blocks, stats.reused_blocks) == (208, 417)
    # A pass-through block is one S3 never saw, and every other block
    # a sub-task reads takes S3.
    inputs = {block for t in tables for block in stored_blocks(t)}
    never = inputs - set(decompressed)
    assert len(never) == stats.passthrough_blocks
    assert sum(map(len, never)) == stats.passthrough_bytes
    assert len(decompressed) == sum(s.num_blocks() for s in subtasks) - 208
    out_tables = [Table(storage.open(m.name), COMPACT_OPTIONS) for m in outputs]
    assert never <= {block for t in out_tables for block in stored_blocks(t)}
    assert [e for t in out_tables for e in t] == reference_merge([upper, lower], False, None)
