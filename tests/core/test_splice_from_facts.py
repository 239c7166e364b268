"""The splice decided from the index: a block whose facts show no other
run near it skips S3 and S4's decode, and the output is the one the
decode-based decision writes.

The oracle is the same inputs written in the per-block-piece layout,
whose index holds no facts, so every block takes S3 and S4: compacted,
they must give the same data blocks, entries and splice counts.
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings

from repro.core import steps
from repro.core.procedures import ProcedureSpec, compact_tables
from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.table_format import BLOCK_TRAILER_SIZE
from repro.lsm.table_reader import Table
from repro.workload import ValueGenerator, format_key
from tests.core.test_passthrough import (
    OPTIONS,
    SUBTASK_BYTES,
    build,
    reference_merge,
    run_sets,
    stored_blocks,
)
from tests.lsm.piece_layout import write_piece_layout


def build_old(storage, name, entries, options=OPTIONS):
    """``entries`` as :func:`build` takes them, in the piece layout."""
    rows = [(encode_internal_key(user, seq, kind), value) for user, seq, kind, value in entries]
    write_piece_layout(storage, name, rows, options)
    return Table(storage.open(name), options)


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


def counts(stats):
    return stats.passthrough_blocks, stats.reused_blocks


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=run_sets())
def test_facts_write_what_the_decode_writes(case):
    runs, drop_deletes, snapshot = case
    storage = MemStorage()
    new = [build(storage, f"new-{r}.sst", run) for r, run in enumerate(runs)]
    old = [build_old(storage, f"old-{r}.sst", run) for r, run in enumerate(runs)]
    kw = dict(drop_deletes=drop_deletes, smallest_snapshot=snapshot)
    new_blocks, new_entries, new_stats, _ = compact(storage, new, "new", **kw)
    old_blocks, old_entries, old_stats, _ = compact(storage, old, "old", **kw)
    assert new_entries == reference_merge(runs, drop_deletes, snapshot)
    assert new_entries == old_entries
    assert new_blocks == old_blocks
    assert counts(new_stats) == counts(old_stats)


def test_mixed_layout_inputs():
    """One table with facts over one without: the same output as two
    tables with facts."""
    rng = random.Random(3)
    upper = [(b"key-%05d" % i, 2000, KIND_VALUE, b"u%d;" % i * rng.randint(2, 9))
             for i in range(0, 400)]
    lower = [(b"key-%05d" % i, 1000, KIND_VALUE, b"l%d;" % i * rng.randint(2, 9))
             for i in range(0, 800, 2)]
    storage = MemStorage()
    both = [build(storage, "a.sst", upper), build(storage, "b.sst", lower)]
    mixed_upper_old = [build_old(storage, "c.sst", upper), build(storage, "d.sst", lower)]
    mixed_lower_old = [build(storage, "e.sst", upper), build_old(storage, "f.sst", lower)]
    blocks, entries, stats, _ = compact(storage, both, "both")
    assert stats.passthrough_blocks > 0 and stats.reused_blocks > 0
    for tag, tables in (("mu", mixed_upper_old), ("ml", mixed_lower_old)):
        other_blocks, other_entries, other_stats, _ = compact(storage, tables, tag)
        assert other_entries == entries == reference_merge([upper, lower], False, None)
        assert other_blocks == blocks
        assert counts(other_stats) == counts(stats)


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
    decompressed = []
    decompress = steps.decompress_block

    def counting(stored):
        decompressed.append(stored)
        return decompress(stored)

    monkeypatch.setattr(steps, "decompress_block", counting)
    numbers = itertools.count(1)
    outputs, stats, subtasks = compact_tables(
        tables, storage, COMPACT_OPTIONS, file_namer=lambda: f"{next(numbers):06d}.sst",
        spec=ProcedureSpec.scp(subtask_bytes=64 * 1024),
    )
    assert sum(t.num_blocks() for t in tables) == 834
    assert (stats.passthrough_blocks, stats.reused_blocks) == (208, 417)
    single_run = [s for s in subtasks if sum(1 for run in s.runs if run.handles) == 1]
    assert sum(s.num_blocks() for s in single_run) == 208
    # Only the multi-run sub-tasks' blocks take S3; no pass-through block does.
    multi_run_blocks = sum(s.num_blocks() for s in subtasks) - 208
    assert len(decompressed) == multi_run_blocks
    out_tables = [Table(storage.open(m.name), COMPACT_OPTIONS) for m in outputs]
    written = {block for t in out_tables for block in stored_blocks(t)}
    passed = {
        run.table.file.pread(h.offset, h.size + BLOCK_TRAILER_SIZE)
        for s in single_run for run in s.runs for h in run.handles
    }
    assert passed <= written
    assert not passed & set(decompressed)
    assert [e for t in out_tables for e in t] == reference_merge([upper, lower], False, None)
