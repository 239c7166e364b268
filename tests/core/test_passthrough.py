"""Block pass-through: exact, checked, and the same under every executor.

A block whose index facts show no other run near it, and that the merge
would only reproduce, goes to the sink as stored, never decompressed
(no S3–S6).  The oracle is a plain
newest-wins merge over the flat list of input entries — no blocks, no
sub-tasks — and SCP's bytes: whatever passes through, every procedure
must still write exactly what the reference holds.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backends.threadbackend import run_subtask_compute, run_subtask_read
from repro.core.procedures import ProcedureSpec, compact_tables
from repro.core.subtask import partition_subtasks
from repro.devices import MemStorage
from repro.devices.faults import corrupt_file
from repro.lsm.ikey import (
    KIND_DELETE,
    KIND_VALUE,
    MAX_SEQUENCE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_format import BLOCK_TRAILER_SIZE, COMPRESSION_TAGS, TableCorruption
from repro.lsm.table_reader import Table

SUBTASK_BYTES = 1024
OPTIONS = Options(block_bytes=256, sstable_bytes=4 * 1024, compression="lz77")
SPECS = {
    "scp": ProcedureSpec.scp(subtask_bytes=SUBTASK_BYTES),
    "pcp": ProcedureSpec.pcp(subtask_bytes=SUBTASK_BYTES),
    "cppcp2": ProcedureSpec.cppcp(2, subtask_bytes=SUBTASK_BYTES),
    "cppcp2-process": ProcedureSpec.cppcp(
        2, subtask_bytes=SUBTASK_BYTES, backend="process"
    ),
}


def user_key(i):
    return b"key-%05d" % i


def build(storage, name, entries, options=OPTIONS):
    """``entries``: (user key, sequence, kind, value), in internal-key order."""
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for user, seq, kind, value in entries:
            builder.add(encode_internal_key(user, seq, kind), value)
        builder.finish()
    return Table(storage.open(name), options)


def reference_merge(runs, drop_deletes, smallest_snapshot):
    """What a compaction must leave: per user key, newest first, every
    version some snapshot (or the present) can still see."""
    snapshot = MAX_SEQUENCE if smallest_snapshot is None else smallest_snapshot
    out = []
    by_user = itertools.groupby(
        sorted(itertools.chain(*runs), key=lambda e: (e[0], -e[1])), key=lambda e: e[0]
    )
    for _user, versions in by_user:
        newer_seq = None
        for user, seq, kind, value in versions:
            shadowed = newer_seq is not None and newer_seq <= snapshot
            dropped = kind == KIND_DELETE and drop_deletes and seq <= snapshot
            newer_seq = seq
            if not (shadowed or dropped):
                out.append((encode_internal_key(user, seq, kind), value))
    return out


def compact(tables, storage, spec, prefix, **kw):
    numbers = itertools.count(1)
    outputs, stats, subtasks = compact_tables(
        tables, storage, OPTIONS,
        file_namer=lambda: f"{prefix}-{next(numbers):04d}.sst", spec=spec, **kw,
    )
    blobs = [storage.open(m.name).read_all() for m in outputs]
    return outputs, stats, subtasks, blobs


def entries_of(storage, outputs):
    return [e for m in outputs for e in Table(storage.open(m.name), OPTIONS)]


def stored_blocks(table):
    return [
        table.file.pread(h.offset, h.size + BLOCK_TRAILER_SIZE)
        for h in table.block_handles()
    ]


# --- the property ------------------------------------------------------

@st.composite
def run_sets(draw):
    """Newest-first runs over disjoint, interleaved or nested key ranges,
    several versions per key, tombstones, compressible and random values."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_runs = draw(st.integers(1, 4))
    layout = draw(st.sampled_from(["disjoint", "interleaved", "nested", "free"]))
    runs = []
    for r in range(n_runs):
        if layout == "disjoint":
            start, stop, step = r * 150, r * 150 + draw(st.integers(5, 140)), 1
        elif layout == "interleaved":
            start, stop, step = r, draw(st.integers(100, 400)), n_runs
        elif layout == "nested":
            start, stop, step = 40 * r, 400 - 40 * r, draw(st.integers(1, 3))
        else:
            start = draw(st.integers(0, 300))
            stop, step = start + draw(st.integers(1, 300)), draw(st.integers(1, 4))
        base = (n_runs - r) * 1000  # a newer run holds newer sequences
        # Few repeats and tombstones: most blocks pass; many: most cannot.
        p_more = draw(st.sampled_from([0.0, 0.03, 0.4]))
        p_delete = draw(st.sampled_from([0.0, 0.03, 0.15]))
        entries = []
        for i in range(start, stop, step):
            seq = base + 900
            for _ in range(1 + (rng.random() < p_more) + (rng.random() < p_more)):
                seq -= rng.randint(1, 200)
                kind = KIND_DELETE if rng.random() < p_delete else KIND_VALUE
                if kind == KIND_DELETE:
                    value = b""
                elif rng.random() < 0.1:
                    value = rng.randbytes(rng.randint(20, 120))  # will not shrink
                else:
                    value = b"%d:%d;" % (i, seq) * rng.randint(1, 8)
                entries.append((user_key(i), seq, kind, value))
        runs.append(entries)
    drop_deletes = draw(st.booleans())
    snapshot = draw(st.one_of(st.none(), st.integers(0, (n_runs + 1) * 1000)))
    return runs, drop_deletes, snapshot


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=run_sets())
def test_every_procedure_writes_the_reference_merge(case):
    runs, drop_deletes, snapshot = case
    storage = MemStorage()
    tables = [build(storage, f"in-{r}.sst", run) for r, run in enumerate(runs)]
    kw = dict(drop_deletes=drop_deletes, smallest_snapshot=snapshot)
    outputs, _stats, _subtasks, scp_blobs = compact(
        tables, storage, SPECS["scp"], "scp", **kw
    )
    assert entries_of(storage, outputs) == reference_merge(runs, drop_deletes, snapshot)
    for name in ("pcp", "cppcp2", "cppcp2-process"):
        *_, blobs = compact(tables, storage, SPECS[name], name, **kw)
        assert blobs == scp_blobs, f"{name} wrote other bytes than scp"


# --- where it fires, and the traps where it must not -------------------

def values(lo, hi, seq=1):
    return [(user_key(i), seq, KIND_VALUE, b"value-%d;" % i * 4) for i in range(lo, hi)]


def compute(subtask, **kw):
    """One sub-task through the compute job; returns its EncodedBlocks."""
    settings_ = dict(drop_deletes=False, smallest_snapshot=None)
    settings_.update(kw)
    encoded, _seconds = run_subtask_compute(
        run_subtask_read(subtask), subtask.index, subtask.lower, subtask.upper,
        len(subtask.runs), OPTIONS.compression, OPTIONS.checksum,
        OPTIONS.block_bytes, OPTIONS.block_restart_interval,
        settings_["drop_deletes"], settings_["smallest_snapshot"],
    )
    return encoded


def passed(encoded):
    return {b.stored for b in encoded if b.passthrough}


def reused(encoded):
    return {b.stored for b in encoded if b.reused}


class TestWhereItFires:
    def test_clean_disjoint_blocks_reach_the_output_verbatim(self):
        storage = MemStorage()
        upper = build(storage, "u.sst", values(0, 300, seq=2))
        lower = build(storage, "l.sst", values(0, 600, seq=1)[::2])
        outputs, stats, _subtasks, blobs = compact(
            [upper, lower], storage, SPECS["scp"], "out"
        )
        assert entries_of(storage, outputs) == reference_merge(
            [values(0, 300, seq=2), values(0, 600, seq=1)[::2]], False, None
        )
        written = b"".join(blobs)
        # Blocks of the lower run wholly past the upper run's last key.
        seps = [f.last_key[:-8] for f in lower.block_facts(lower.block_handles())]
        past = [
            block for block, prev in zip(stored_blocks(lower), [b""] + seps)
            if prev > user_key(299)
        ]
        assert len(past) >= 10
        verbatim = [block for block in past if block in written]
        assert len(verbatim) >= 0.95 * len(past)
        assert stats.passthrough_blocks == len(verbatim)
        assert stats.passthrough_bytes == sum(map(len, verbatim))
        # Nothing of the interleaved half was: it took S4–S6.
        assert stats.passthrough_blocks < lower.num_blocks() // 2 + 2

    def test_multi_run_subtask_never_passes_through(self):
        storage = MemStorage()
        upper = build(storage, "u.sst", values(0, 300, seq=2)[::2])
        lower = build(storage, "l.sst", values(0, 300, seq=1)[1::2])
        _outputs, stats, _subtasks, _blobs = compact(
            [upper, lower], storage, SPECS["scp"], "out"
        )
        assert stats.passthrough_blocks == 0

    def test_sequential_tables_pass_through_whole(self):
        """Key-disjoint tables in a row (sequential insert, a tiered
        level's sorted runs): sub-tasks never straddle two of them."""
        storage = MemStorage()
        tables = [
            build(storage, f"t{r}.sst", values(r * 100, r * 100 + 100, seq=9 - r))
            for r in range(4)
        ]
        _outputs, stats, subtasks, _blobs = compact(tables, storage, SPECS["pcp"], "out")
        assert all(sum(1 for run in s.runs if run.handles) == 1 for s in subtasks)
        assert stats.passthrough_blocks == sum(t.num_blocks() for t in tables)
        assert stats.passthrough_bytes == stats.input_bytes


class TestTraps:
    """Each case pins one reason a block must take S4–S6 after all."""

    def _single(self, entries, **partition_kw):
        storage = MemStorage()
        table = build(storage, "t.sst", entries)
        (subtask,) = partition_subtasks([table], 1 << 20, **partition_kw)
        return table, subtask

    def test_tombstone_under_drop_deletes(self):
        entries = values(0, 100)
        entries[50] = (user_key(50), 1, KIND_DELETE, b"")
        table, subtask = self._single(entries)
        blocks = stored_blocks(table)
        kept = compute(subtask, drop_deletes=False)
        holder = next(
            block for block, encoded in zip(blocks, kept)
            if encoded.first_key[:-8] <= user_key(50) <= encoded.last_key[:-8]
        )
        # The facts of a block holding a tombstone do not say it is
        # plain: it is decoded, and a tombstone that stays is just an
        # entry, so the block is spliced after all.
        assert passed(kept) == set(blocks) - {holder}
        assert reused(kept) == {holder}
        dropped = compute(subtask, drop_deletes=True)
        assert passed(dropped) == set(blocks) - {holder}
        assert not reused(dropped)
        assert sum(b.num_entries for b in dropped) == 99
        # ... but a snapshot older than the tombstone still needs it.
        seen = compute(subtask, drop_deletes=True, smallest_snapshot=0)
        assert passed(seen) == set(blocks) - {holder}
        assert reused(seen) == {holder}

    def test_user_key_repeated_across_a_block_edge(self):
        from repro.lsm.blockfmt import Block

        entries = values(0, 60, seq=7)
        table, _ = self._single(entries)
        # The key that closes block 2 gets an older version: it sorts
        # right behind, so block 2 fills up as before and the older
        # version opens block 3.
        closer = [k for k, _ in Block(table._load_block(table.block_handles()[2]))][-1]
        index = next(i for i, e in enumerate(entries) if e[0] == closer[:-8])
        entries.insert(index + 1, (closer[:-8], 3, KIND_VALUE, b"older"))
        table, subtask = self._single(entries)
        blocks = stored_blocks(table)
        held_back = {blocks[2], blocks[3]}
        # Both versions survive under an old snapshot; without one the
        # older is shadowed, which only a merge that sees both can tell.
        encoded = compute(subtask, smallest_snapshot=0)
        assert passed(encoded) == set(blocks) - held_back
        assert sum(b.num_entries for b in encoded) == len(entries)
        merged = compute(subtask)
        assert passed(merged) == set(blocks) - held_back
        assert sum(b.num_entries for b in merged) == len(entries) - 1

    def test_block_stored_null_under_lz77(self):
        rng = random.Random(5)
        entries = values(0, 100)
        for i in range(40, 50):
            # Nothing here shrinks, not even the sequence number's
            # zero bytes: the block is stored as it is, under tag null.
            entries[i] = (user_key(i), 0x5A6B7C8D9EAFB1, KIND_VALUE, rng.randbytes(250))
        table, subtask = self._single(entries)
        blocks = stored_blocks(table)
        null = {b for b in blocks if b[-BLOCK_TRAILER_SIZE] == COMPRESSION_TAGS["null"]}
        assert null and null != set(blocks)
        assert passed(compute(subtask)) == set(blocks) - null

    def test_block_straddling_the_upper_bound(self):
        table, _ = self._single(values(0, 100))
        (subtask,) = partition_subtasks([table], 1 << 20, upper=user_key(50))
        blocks = stored_blocks(table)
        encoded = compute(subtask)
        assert sum(b.num_entries for b in encoded) == 50
        straddler = blocks[len(subtask.runs[0].handles) - 1]
        assert straddler not in passed(encoded)
        assert passed(encoded) == set(blocks[: len(subtask.runs[0].handles) - 1])


# --- S2 still guards every block ---------------------------------------

@pytest.mark.parametrize("name", list(SPECS))
def test_flipped_byte_in_a_passthrough_block_is_caught(name):
    """The block would have gone from S1 to S7 untouched; S2 must still
    have verified it, on whichever thread or process computes."""
    storage = MemStorage()
    options = Options(
        block_bytes=256, sstable_bytes=4 * 1024, compression="lz77",
        paranoid_checks=False,  # opening the table must not trip first
    )
    upper = build(storage, "u.sst", values(0, 100, seq=2), options)
    lower = build(storage, "l.sst", values(0, 400, seq=1), options)
    handle = lower.block_handles()[-3]  # well past the upper run: passes through
    corrupt_file(storage, "l.sst", handle.offset + handle.size // 2)
    lower = Table(storage.open("l.sst"), options)
    numbers = itertools.count(1)
    with pytest.raises(TableCorruption):
        compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"out-{next(numbers):04d}.sst", spec=SPECS[name],
        )
