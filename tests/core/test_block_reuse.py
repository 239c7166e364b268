"""Payload reuse in S5: one oracle that does not care how a block got there.

A rebuilt block that equals an input block takes that block's stored
payload instead of being compressed again.  Rebuilt and compressed,
rebuilt and reused, or passed through as stored — the output must be
what S5/S6 would have written: every data block, decompressed, then
compressed by the output codec and framed, gives back its stored bytes.
The entries are the reference merge of ``test_passthrough``, and every
executor writes the same files.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec import get_checksummer, get_codec
from repro.core.procedures import compact_tables
from repro.core.subtask import partition_subtasks
from repro.devices import MemStorage
from repro.devices.faults import corrupt_file
from repro.lsm.ikey import KIND_DELETE, KIND_VALUE
from repro.lsm.options import Options
from repro.lsm.table_format import (
    BLOCK_TRAILER_SIZE,
    COMPRESSION_TAGS,
    TableCorruption,
    decode_block_contents,
    encode_block_contents,
)
from repro.lsm.table_reader import Table
from tests.core.test_passthrough import (
    OPTIONS,
    SPECS,
    SUBTASK_BYTES,
    build,
    compact,
    compute,
    entries_of,
    reference_merge,
    stored_blocks,
    user_key,
)


def data_blocks(storage, outputs):
    return [
        block for m in outputs
        for block in stored_blocks(Table(storage.open(m.name), OPTIONS))
    ]


def assert_as_s5_s6_would_write(blocks, options=OPTIONS):
    codec = get_codec(options.compression)
    checksummer = get_checksummer(options.checksum)
    for stored in blocks:
        raw = decode_block_contents(stored, checksummer)
        assert encode_block_contents(raw, codec, checksummer) == stored


def assert_every_procedure_agrees(runs, tables, storage, **kw):
    """SCP writes the reference merge in S5/S6's own bytes; the other
    executors write SCP's files and count the same blocks.  Returns
    SCP's stats and data blocks."""
    outputs, stats, _subtasks, scp_blobs = compact(
        tables, storage, SPECS["scp"], "scp", **kw
    )
    assert entries_of(storage, outputs) == reference_merge(
        runs, kw.get("drop_deletes", False), kw.get("smallest_snapshot")
    )
    blocks = data_blocks(storage, outputs)
    assert_as_s5_s6_would_write(blocks)
    assert stats.passthrough_blocks + stats.reused_blocks <= len(blocks)
    for name in ("pcp", "cppcp2", "cppcp2-process"):
        _outputs, other, _subtasks, blobs = compact(
            tables, storage, SPECS[name], name, **kw
        )
        assert blobs == scp_blobs, f"{name} wrote other bytes than scp"
        assert (other.reused_blocks, other.reused_bytes) == (
            stats.reused_blocks, stats.reused_bytes
        ), f"{name} counted other blocks than scp"
    return stats, blocks


def records(keys, seq, value_bytes, salt=0):
    """One version per key, every value ``value_bytes`` long."""
    return [
        (user_key(i), seq, KIND_VALUE, (b"%d.%d;" % (i + salt, seq) * value_bytes)[:value_bytes])
        for i in keys
    ]


# --- the property ------------------------------------------------------

@st.composite
def overwrite_cases(draw, shape):
    """An older run under one or two newer ones.  ``same-size``: the
    newer runs overwrite stretches of its keys with values of the same
    length, so no block boundary moves and reuse fires; ``resized`` and
    ``inserts``: lengths change or new keys arrive, boundaries shift,
    and it must simply do no harm."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([120, 250, 400]))
    size = draw(st.integers(8, 90))
    step = 2 if shape == "inserts" else 1
    runs = [records(range(0, n, step), 1000, size)]
    for r in range(draw(st.integers(1, 2))):
        seq = 2000 + 1000 * r
        lo, hi = draw(st.sampled_from([(0, 4), (0, 2), (1, 3), (2, 4)]))
        keys = range(lo * n // 4, hi * n // 4)
        if shape == "inserts":
            keys = [i for i in keys if i % 2]
        newer = records(keys, seq, size, salt=r + 1)
        if shape == "resized":
            newer = [
                (user, seq, KIND_DELETE, b"") if rng.random() < 0.05
                else (user, seq, kind, value * rng.randint(1, 3))
                for user, seq, kind, value in newer
            ]
        runs.insert(0, newer)
    drop_deletes = draw(st.booleans())
    # None and 9999: nothing pins an old version; 1500: a live snapshot
    # that still reads the oldest run.
    snapshot = draw(st.sampled_from([None, 9999, 1500]))
    return runs, drop_deletes, snapshot


@pytest.mark.parametrize("shape", ["same-size", "resized", "inserts"])
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_reused_or_not_the_output_is_what_s5_s6_write(shape, data):
    runs, drop_deletes, snapshot = data.draw(overwrite_cases(shape))
    storage = MemStorage()
    tables = [build(storage, f"in-{r}.sst", run) for r, run in enumerate(runs)]
    stats, _blocks = assert_every_procedure_agrees(
        runs, tables, storage, drop_deletes=drop_deletes, smallest_snapshot=snapshot
    )
    if shape == "same-size" and snapshot != 1500:
        # The newest run's stretch comes out of S4 in its own blocks.
        assert stats.reused_blocks > 0


# --- where it fires ----------------------------------------------------

class TestWhereItFires:
    def test_same_size_overwrite_takes_the_newer_runs_payloads(self):
        """Two runs over the same keys: every sub-task holds both, so
        nothing passes through, and S4 rebuilds the newer run's blocks."""
        runs = [records(range(300), 2, 40, salt=1), records(range(300), 1, 40)]
        storage = MemStorage()
        upper, lower = (build(storage, f"{r}.sst", run) for r, run in enumerate(runs))
        stats, blocks = assert_every_procedure_agrees(runs, [upper, lower], storage)
        assert stats.passthrough_blocks == 0
        taken = set(stored_blocks(upper)) & set(blocks)
        assert len(taken) >= 0.9 * upper.num_blocks()
        assert stats.reused_blocks == len(taken)
        assert stats.reused_bytes == sum(map(len, taken))

    def test_sparse_overwrite_keeps_the_untouched_blocks_of_the_older_run(self):
        """One key in forty rewritten at its old size: the blocks of the
        older run between two such keys come out of S4 as they went in."""
        runs = [records(range(0, 600, 40), 2, 40, salt=1), records(range(600), 1, 40)]
        storage = MemStorage()
        tables = [build(storage, f"{r}.sst", run) for r, run in enumerate(runs)]
        stats, blocks = assert_every_procedure_agrees(runs, tables, storage)
        taken = set(stored_blocks(tables[1])) & set(blocks)
        assert stats.reused_blocks + stats.passthrough_blocks == len(taken)
        assert stats.reused_blocks >= 0.4 * tables[1].num_blocks()

    def test_the_compute_job_marks_reused_blocks(self):
        runs = [records(range(100), 2, 40, salt=1), records(range(100), 1, 40)]
        storage = MemStorage()
        tables = [build(storage, f"{r}.sst", run) for r, run in enumerate(runs)]
        inputs = {block for table in tables for block in stored_blocks(table)}
        reused = 0
        for subtask in partition_subtasks(tables, SUBTASK_BYTES):
            for block in compute(subtask):
                assert not block.passthrough
                assert block.reused == (block.stored in inputs)
                reused += block.reused
        assert reused > 0


# --- the traps ---------------------------------------------------------

class TestTraps:
    def test_input_written_under_another_codec_is_compressed_again(self):
        """Equal bytes after S3 are not enough: a zlib payload does not
        go into an lz77 table (the tag rule of pass-through)."""
        runs = [records(range(300), 2, 40, salt=1), records(range(300), 1, 40)]
        written_under = Options(
            block_bytes=OPTIONS.block_bytes, sstable_bytes=OPTIONS.sstable_bytes,
            compression="zlib",
        )
        storage = MemStorage()
        tables = [
            build(storage, f"{r}.sst", run, written_under) for r, run in enumerate(runs)
        ]
        zlib_tag = COMPRESSION_TAGS["zlib"]
        assert all(
            b[-BLOCK_TRAILER_SIZE] == zlib_tag for t in tables for b in stored_blocks(t)
        )
        stats, blocks = assert_every_procedure_agrees(runs, tables, storage)
        assert stats.reused_blocks == 0
        assert not any(b[-BLOCK_TRAILER_SIZE] == zlib_tag for b in blocks)

    def test_block_stored_null_under_lz77_is_compressed_again(self):
        """A block that did not shrink carries the ``null`` tag, not the
        output codec's: S5 runs, finds as much, and stores it again."""
        rng = random.Random(5)
        upper = records(range(100), 0x5A6B7C8D9EAFB1, 40, salt=1)
        for i in range(40, 50):
            upper[i] = upper[i][:3] + (rng.randbytes(250),)
        runs = [upper, records(range(100), 1, 40)]
        storage = MemStorage()
        tables = [build(storage, f"{r}.sst", run) for r, run in enumerate(runs)]
        null_tag = COMPRESSION_TAGS["null"]
        stored_null = {
            b for b in stored_blocks(tables[0]) if b[-BLOCK_TRAILER_SIZE] == null_tag
        }
        assert stored_null
        encoded = [
            block
            for subtask in partition_subtasks(tables, SUBTASK_BYTES)
            for block in compute(subtask)
        ]
        assert any(b.reused for b in encoded)
        assert not any(b.reused for b in encoded if b.stored[-BLOCK_TRAILER_SIZE] == null_tag)
        # Same bytes all the same: the codec is deterministic.
        assert stored_null <= {b.stored for b in encoded}
        assert_as_s5_s6_would_write([b.stored for b in encoded])

    @pytest.mark.parametrize("name", list(SPECS))
    def test_corrupt_block_in_a_multi_run_subtask_is_caught_by_s2(self, name):
        """The mapping holds only blocks S2 verified: a damaged block
        stops the compaction before anything is written."""
        options = Options(
            block_bytes=256, sstable_bytes=4 * 1024, compression="lz77",
            paranoid_checks=False,  # opening the table must not trip first
        )
        storage = MemStorage()
        build(storage, "u.sst", records(range(300), 2, 40, salt=1), options)
        lower = build(storage, "l.sst", records(range(300), 1, 40), options)
        handle = lower.block_handles()[1]
        corrupt_file(storage, "l.sst", handle.offset + handle.size // 2)
        tables = [Table(storage.open(n), options) for n in ("u.sst", "l.sst")]
        first = partition_subtasks(tables, SUBTASK_BYTES)[0]
        assert all(run.handles for run in first.runs)  # both runs: no pass-through
        with pytest.raises(TableCorruption, match="checksum"):
            compute(first)
        numbers = itertools.count(1)
        with pytest.raises(TableCorruption, match="checksum"):
            compact_tables(
                tables, storage, options,
                file_namer=lambda: f"out-{next(numbers):04d}.sst", spec=SPECS[name],
            )
        assert storage.list() == ["l.sst", "u.sst"]
