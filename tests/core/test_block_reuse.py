"""Reused blocks: one oracle that does not care how a block got there.

An input block of a multi-run sub-task that the merge would only
reproduce is spliced into the output as stored (``reused``).  Rebuilt
and compressed, spliced, or passed through as stored — the output must
be what S5/S6 would have written: every data block, decompressed, then
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
from repro.core.backends.threadbackend import run_subtask_read
from repro.core.procedures import compact_tables
from repro.core.steps import MergedBlock, step_decompress, step_splice
from repro.core.subtask import partition_subtasks
from repro.devices import MemStorage
from repro.devices.faults import corrupt_file
from repro.lsm.blockfmt import Block
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
from repro.lsm.table_sink import EncodedBlock
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
        """Only blocks S2 verified are spliced: a damaged block stops
        the compaction before anything is written."""
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


# --- the splice: blocks S4 would only reproduce skip it ----------------

def splice(tables, subtask=None, **kw):
    """S1–S4 of one sub-task (by default the only one over ``tables``):
    the stored input blocks S4 spliced, and the number it rebuilt."""
    if subtask is None:
        (subtask,) = partition_subtasks(
            tables, 1 << 20, smallest_snapshot=kw.get("smallest_snapshot")
        )
    stored = run_subtask_read(subtask)
    out = step_splice(
        stored, step_decompress(stored), subtask.lower, subtask.upper,
        get_codec(OPTIONS.compression), OPTIONS.block_bytes,
        OPTIONS.block_restart_interval, kw.get("drop_deletes", False),
        kw.get("smallest_snapshot"),
    )
    return (
        {b.stored for b in out if isinstance(b, EncodedBlock)},
        sum(isinstance(b, MergedBlock) for b in out),
    )


def block_ranges(table):
    """(stored block, first user key, last user key) per data block."""
    out = []
    for handle, block in zip(table.block_handles(), stored_blocks(table)):
        keys = [k[:-8] for k, _ in Block(table._load_block(handle))]
        out.append((block, keys[0], keys[-1]))
    return out


def holder(table, user):
    """The stored block of ``table`` whose user-key range holds ``user``."""
    (block,) = [b for b, first, last in block_ranges(table) if first <= user <= last]
    return block


@st.composite
def splice_cases(draw):
    """An oldest run of even keys under one or two newer runs, each
    newer run one of: shadowing every older key in its stretch, the same
    but for one older key, a few keys inside older blocks, or tombstones
    over older keys.  Small sub-tasks cut through the older blocks."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([160, 320]))
    size = draw(st.integers(8, 60))
    runs = [records(range(0, n, 2), 1000, size)]
    for r in range(draw(st.integers(1, 2))):
        seq = 2000 + 1000 * r
        lo, hi = draw(st.sampled_from([(0, 4), (0, 2), (1, 3), (2, 4)]))
        keys = list(range(lo * n // 4, hi * n // 4))
        shape = draw(st.sampled_from(["shadows", "all-but-one", "inside", "tombstones"]))
        if shape == "all-but-one":
            keys.remove(rng.choice([i for i in keys if i % 2 == 0]))
        elif shape == "inside":
            keys = keys[rng.randrange(7) :: 7]
        newer = records(keys, seq, size, salt=r + 1)
        if shape == "tombstones":
            newer = [
                (user, seq, KIND_DELETE, b"") if rng.random() < 0.08 else (user, seq, kind, value)
                for user, seq, kind, value in newer
            ]
        runs.insert(0, newer)
    drop_deletes = draw(st.booleans())
    snapshot = draw(st.sampled_from([None, 9999, 1500]))
    return runs, drop_deletes, snapshot


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=splice_cases())
def test_spliced_or_merged_every_procedure_writes_the_reference(case):
    runs, drop_deletes, snapshot = case
    storage = MemStorage()
    tables = [build(storage, f"in-{r}.sst", run) for r, run in enumerate(runs)]
    assert_every_procedure_agrees(
        runs, tables, storage, drop_deletes=drop_deletes, smallest_snapshot=snapshot
    )


class TestSpliceTraps:
    """Two runs over keys 0–59: the newer holds every key, the older the
    even ones.  Every newer block shadows all the older keys in its
    range, so S4 splices each and rebuilds nothing.  Each trap changes
    one thing, and exactly the block it touches must be merged."""

    def _tables(self, newer, older=None, newer_options=OPTIONS):
        older = records(range(0, 60, 2), 1, 40) if older is None else older
        storage = MemStorage()
        tables = [
            build(storage, "u.sst", newer, newer_options),
            build(storage, "l.sst", older),
        ]
        return tables

    def test_control_every_newer_block_is_spliced(self):
        upper, lower = self._tables(records(range(60), 2, 40, salt=1))
        assert splice([upper, lower]) == (set(stored_blocks(upper)), 0)
        # Spliced in a sub-task of two runs: counted as reused.
        (subtask,) = partition_subtasks([upper, lower], 1 << 20)
        encoded = compute(subtask)
        assert all(b.reused and not b.passthrough for b in encoded)

    def test_older_key_the_newer_block_lacks(self):
        newer = records(range(60), 2, 40, salt=1)
        del newer[22]  # key 22, inside a block: the older version survives
        upper, lower = self._tables(newer)
        unshadowed = holder(upper, user_key(22))
        spliced, rebuilt = splice([upper, lower])
        assert spliced == set(stored_blocks(upper)) - {unshadowed}
        assert rebuilt >= 1

    def test_newer_key_inside_an_older_block(self):
        # The older run reaches past the newer one: its blocks there
        # overlap nothing newer and are spliced, until one holds a key
        # the newer run also has.
        older = records(range(0, 120, 2), 1, 40)
        upper, lower = self._tables(records(range(30), 2, 40, salt=1), older)
        past = {b for b, first, _ in block_ranges(lower) if first > user_key(29)}
        assert len(past) >= 4
        assert splice([upper, lower])[0] == set(stored_blocks(upper)) | past
        # A newer version of key 80: the older block holding 80 is
        # shadowed by nothing older, but must give way to it.
        upper, lower = self._tables(
            records(range(30), 2, 40, salt=1) + records([80], 2, 40, salt=1), older
        )
        overlapped = holder(lower, user_key(80))
        assert overlapped in past
        # The newer block of key 80 shadows the older 80: it is spliced.
        spliced, rebuilt = splice([upper, lower])
        assert spliced == set(stored_blocks(upper)) | past - {overlapped}
        assert rebuilt >= 1

    def test_newer_version_a_snapshot_cannot_see_past(self):
        newer = records(range(60), 5, 40, salt=1)
        newer[22] = (user_key(22), 50, KIND_VALUE, newer[22][3])  # above the snapshot
        newer[41] = (user_key(41), 50, KIND_VALUE, newer[41][3])  # ... but shadows nothing
        upper, lower = self._tables(newer)
        assert splice([upper, lower], smallest_snapshot=None)[0] == set(stored_blocks(upper))
        spliced, _ = splice([upper, lower], smallest_snapshot=10)
        assert spliced == set(stored_blocks(upper)) - {holder(upper, user_key(22))}

    def test_tombstone_under_drop_deletes(self):
        newer = records(range(60), 2, 40, salt=1)
        newer[22] = (user_key(22), 2, KIND_DELETE, b"")
        upper, lower = self._tables(newer)
        assert splice([upper, lower])[0] == set(stored_blocks(upper))
        spliced, _ = splice([upper, lower], drop_deletes=True)
        assert spliced == set(stored_blocks(upper)) - {holder(upper, user_key(22))}

    def test_two_versions_in_the_newer_block(self):
        newer = records(range(60), 3, 40, salt=1)
        newer.insert(23, (user_key(22), 2, KIND_VALUE, b"x" * 40))
        upper, lower = self._tables(newer)
        # Without a snapshot the merge drops the older version of 22.
        spliced, _ = splice([upper, lower])
        assert spliced == set(stored_blocks(upper)) - {holder(upper, user_key(22))}

    def test_block_straddling_the_upper_bound(self):
        upper, lower = self._tables(records(range(60), 2, 40, salt=1))
        (subtask,) = partition_subtasks([upper, lower], 1 << 20, upper=user_key(22))
        spliced, rebuilt = splice([upper, lower], subtask)
        straddler = holder(upper, user_key(22))
        assert straddler not in spliced and rebuilt == 1
        assert spliced == set(stored_blocks(upper)[: len(subtask.runs[0].handles) - 1])

    def test_newer_block_under_another_codec(self):
        zlib = Options(
            block_bytes=OPTIONS.block_bytes, sstable_bytes=OPTIONS.sstable_bytes,
            compression="zlib",
        )
        upper, lower = self._tables(records(range(60), 2, 40, salt=1), newer_options=zlib)
        spliced, rebuilt = splice([upper, lower])
        assert spliced == set() and rebuilt == upper.num_blocks()
