"""One SSTable format, whoever writes the table.

A DB flush, a ``TableBuilder`` and a ``compact_tables`` output are all
written by one writer: one index entry per data block, keyed by that
block's last internal key, its value the block's handle, then the
block's facts (first key, entry count, plain bit) and the filter piece
that block's user keys give; index and (empty) filter block stored
under the null tag, the footer marking the facts layout.  A compaction
that splices a block copies its facts and piece byte for byte, and
every procedure and backend writes the same bytes.
"""

import itertools

import pytest

from repro.codec import get_checksummer
from repro.core.procedures import ProcedureSpec, compact_tables
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm.blockfmt import Block
from repro.lsm.ikey import KIND_VALUE, encode_internal_key, internal_compare
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_format import (
    BLOCK_TRAILER_SIZE,
    COMPRESSION_TAGS,
    FOOTER_SIZE,
    LAYOUT_FACTS,
    BlockHandle,
    Footer,
    decode_block_contents,
    decode_block_facts,
    facts_of_entries,
    read_block,
)
from repro.lsm.table_reader import Table
from tests.lsm.bloom_reference import piece_of_keys

OPTIONS = Options(block_bytes=512, sstable_bytes=8 * 1024, compression="lz77")


def _ik(i, seq=1):
    return encode_internal_key(b"key-%05d" % i, seq, KIND_VALUE)


def entries(keys, seq=1):
    return [(_ik(i, seq), b"value-%05d-%d;" % (i, seq) * 4) for i in keys]


def build(storage, name, rows, options=OPTIONS):
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for ikey, value in rows:
            builder.add(ikey, value)
        builder.finish()
    return Table(storage.open(name), options)


def assert_one_format(storage, name, options=OPTIONS):
    """The oracle: every writer's table, as the format says it is."""
    checksummer = get_checksummer(options.checksum)
    null = COMPRESSION_TAGS["null"]
    with storage.open(name) as f:
        raw_footer = f.pread(f.size() - FOOTER_SIZE, FOOTER_SIZE)
        assert raw_footer[31] == LAYOUT_FACTS
        footer = Footer.decode(raw_footer)
        index_stored = read_block(f, footer.index_handle)
        filter_stored = read_block(f, footer.filter_handle)
        assert index_stored[-BLOCK_TRAILER_SIZE] == null
        assert filter_stored[-BLOCK_TRAILER_SIZE] == null
        index = Block(decode_block_contents(index_stored, checksummer), compare=internal_compare)
        offset = 0
        for key, value in index:
            handle, end = BlockHandle.decode(value)
            assert handle.offset == offset  # the data blocks, each indexed once
            offset += handle.size + BLOCK_TRAILER_SIZE
            block = list(Block(decode_block_contents(read_block(f, handle), checksummer)))
            assert key == block[-1][0]
            facts, end = decode_block_facts(value, end, key)
            assert facts == facts_of_entries(block)
            users = [ikey[:-8] for ikey, _ in block]
            assert value[end:] == piece_of_keys(users, options.bloom_bits_per_key)
        assert offset == footer.filter_handle.offset
    assert offset > 0
    assert decode_block_contents(filter_stored, checksummer) == b""


class TestThreeWriters:
    def test_db_flush(self):
        storage = MemStorage()
        db = DB(storage, OPTIONS)
        for ikey, value in entries(range(0, 900, 3)):
            db.put(ikey[:-8], value)
        db.flush()
        db.close()
        names = [n for n in storage.list() if n.endswith(".sst")]
        assert names
        for name in names:
            assert_one_format(storage, name)

    def test_table_builder(self):
        storage = MemStorage()
        build(storage, "t.sst", entries(range(0, 900, 3)))
        assert_one_format(storage, "t.sst")

    def test_compaction_output(self):
        storage = MemStorage()
        tables = [
            build(storage, "upper.sst", entries(range(0, 600, 2), seq=2)),
            build(storage, "lower.sst", entries(range(0, 900, 3))),
        ]
        numbers = itertools.count(1)
        outputs, _, _ = compact_tables(
            tables, storage, OPTIONS, file_namer=lambda: f"{next(numbers):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        assert len(outputs) > 1
        for meta in outputs:
            assert_one_format(storage, meta.name)


# --- the filter piece travels with the block ------------------------------

def _stored_blocks(storage, name, options=OPTIONS):
    """{stored bytes: filter piece} of every data block of ``name``."""
    table = Table(storage.open(name), options)
    handles = table.block_handles()
    with storage.open(name) as f:
        stored = [read_block(f, handle) for handle in handles]
    pieces = table.block_filters(handles)
    table.close()
    return dict(zip(stored, pieces))


def _stored_facts(storage, name, options=OPTIONS):
    """{stored bytes: the facts bytes of its index entry} of every data
    block of ``name``."""
    checksummer = get_checksummer(options.checksum)
    out = {}
    with storage.open(name) as f:
        footer = Footer.decode(f.pread(f.size() - FOOTER_SIZE, FOOTER_SIZE))
        index = Block(decode_block_contents(read_block(f, footer.index_handle), checksummer))
        for key, value in index:
            handle, start = BlockHandle.decode(value)
            _facts, end = decode_block_facts(value, start, key)
            out[read_block(f, handle)] = value[start:end]
    return out


def _splice_inputs(storage):
    """The ``compact`` shape: the upper run holds every key of the lower
    run's first half and shadows it; the second half is the lower run's
    alone."""
    return [
        build(storage, "upper.sst", entries(range(0, 600), seq=2)),
        build(storage, "lower.sst", entries(range(0, 1200, 2))),
    ]


class TestSplicedPieces:
    def test_spliced_block_keeps_its_input_piece(self):
        storage = MemStorage()
        tables = _splice_inputs(storage)
        inputs = {}
        for name in ("upper.sst", "lower.sst"):
            inputs.update(_stored_blocks(storage, name))
        numbers = itertools.count(1)
        outputs, stats, _ = compact_tables(
            tables, storage, OPTIONS, file_namer=lambda: f"{next(numbers):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        assert stats.passthrough_blocks > 0 and stats.reused_blocks > 0
        spliced = 0
        for meta in outputs:
            for stored, piece in _stored_blocks(storage, meta.name).items():
                if stored in inputs:
                    spliced += 1
                    assert piece == inputs[stored]
        assert spliced == stats.passthrough_blocks + stats.reused_blocks

    def test_spliced_block_keeps_its_input_facts(self):
        storage = MemStorage()
        tables = _splice_inputs(storage)
        inputs = {}
        for name in ("upper.sst", "lower.sst"):
            inputs.update(_stored_facts(storage, name))
        numbers = itertools.count(1)
        outputs, stats, _ = compact_tables(
            tables, storage, OPTIONS, file_namer=lambda: f"{next(numbers):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        spliced = 0
        for meta in outputs:
            for stored, facts in _stored_facts(storage, meta.name).items():
                if stored in inputs:
                    spliced += 1
                    assert facts == inputs[stored]
        assert spliced == stats.passthrough_blocks + stats.reused_blocks > 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_procedures_write_the_same_bytes(self, backend):
        storage = MemStorage()
        tables = _splice_inputs(storage)
        tables.append(build(storage, "lowest.sst", entries(range(1, 900, 3))))
        specs = {
            "scp": ProcedureSpec.scp(subtask_bytes=2048),
            "pcp": ProcedureSpec.pcp(subtask_bytes=2048, backend=backend),
            "cppcp2": ProcedureSpec.cppcp(2, subtask_bytes=2048, backend=backend),
        }
        written = {}
        for name, spec in specs.items():
            numbers = itertools.count(1)
            outputs, _, _ = compact_tables(
                tables, storage, OPTIONS,
                file_namer=lambda: f"{name}-{next(numbers):04d}.sst", spec=spec,
            )
            written[name] = [storage.open(m.name).read_all() for m in outputs]
            for meta in outputs:
                assert_one_format(storage, meta.name)
        assert len(written["scp"]) > 1
        assert written["pcp"] == written["scp"] == written["cppcp2"]
