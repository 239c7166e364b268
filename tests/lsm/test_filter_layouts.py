"""Both filter layouts: the per-block pieces every writer now writes, and
the table-wide filter of tables written before, which still open, read,
scan and compact (into per-block outputs)."""

import itertools
import random

import pytest

from repro.core.procedures import ProcedureSpec, compact_tables
from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE, MAX_SEQUENCE, encode_internal_key, lookup_key
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table
from repro.workload import format_key
from tests.lsm.table_wide_layout import write_table_wide
from tests.lsm.test_one_format import assert_one_format

OPTIONS = Options(block_bytes=512, sstable_bytes=8 * 1024, compression="lz77")


def entries(keys, seq=1):
    return [
        (encode_internal_key(b"key-%05d" % i, seq, KIND_VALUE), b"value-%05d-%d;" % (i, seq) * 4)
        for i in keys
    ]


def build(storage, name, rows, options=OPTIONS):
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for ikey, value in rows:
            builder.add(ikey, value)
        builder.finish()
    return Table(storage.open(name), options)


def old(storage, name, rows, options=OPTIONS):
    write_table_wide(storage, name, rows, options)
    return Table(storage.open(name), options)


def compact(storage, tables, tag, options=OPTIONS):
    numbers = itertools.count(1)
    outputs, stats, _ = compact_tables(
        tables, storage, options, file_namer=lambda: f"{tag}-{next(numbers):04d}.sst",
        spec=ProcedureSpec.scp(subtask_bytes=2048),
    )
    return outputs, stats


class TestTableWideLayout:
    ROWS = entries(range(0, 1200, 2))

    def test_opens_answers_and_scans(self):
        table = old(MemStorage(), "old.sst", self.ROWS)
        assert table.filter_layout() == "table-wide"
        assert all(piece == b"" for piece in table.block_filters(table.block_handles()))
        assert list(table) == self.ROWS
        assert list(table.iter_reverse_from(None)) == self.ROWS[::-1]
        middle = self.ROWS[300][0]
        assert list(table.iter_from(middle)) == self.ROWS[300:]
        assert list(table.iter_reverse_from(middle)) == self.ROWS[300::-1]
        for ikey, value in self.ROWS:
            assert table.get(lookup_key(ikey[:-8], MAX_SEQUENCE)) == (ikey, value)
        misses = [table.get(lookup_key(b"key-%05d" % i, MAX_SEQUENCE)) for i in range(1, 1200, 2)]
        assert all(hit is None or hit[0][:-8] != b"key-%05d" % i
                   for i, hit in zip(range(1, 1200, 2), misses))
        assert sum(hit is None for hit in misses) >= 0.95 * len(misses)

    def test_compacts_into_per_block_outputs(self):
        storage = MemStorage()
        tables = [
            old(storage, "upper.sst", entries(range(0, 600), seq=2)),
            old(storage, "lower.sst", self.ROWS),
        ]
        outputs, stats = compact(storage, tables, "out")
        assert stats.passthrough_blocks > 0 and stats.reused_blocks > 0
        expected = entries(range(0, 600), seq=2) + self.ROWS[300:]
        got = []
        for meta in outputs:
            assert_one_format(storage, meta.name)
            table = Table(storage.open(meta.name), OPTIONS)
            assert table.filter_layout() == "per-block"
            got.extend(table)
        assert got == expected

    def test_mixed_inputs_compact_like_two_new_tables(self):
        upper = entries(range(0, 600), seq=2)
        storage = MemStorage()
        mixed = [build(storage, "upper.sst", upper), old(storage, "lower.sst", self.ROWS)]
        new = [build(storage, "upper2.sst", upper), build(storage, "lower2.sst", self.ROWS)]
        written = {}
        for tag, tables in (("mixed", mixed), ("new", new)):
            outputs, _ = compact(storage, tables, tag)
            written[tag] = [storage.open(m.name).read_all() for m in outputs]
            got = [e for m in outputs for e in Table(storage.open(m.name), OPTIONS)]
            assert got == upper + self.ROWS[300:]
        assert written["mixed"] == written["new"]


class TestPerBlockPieces:
    def test_false_positive_rate_at_most_two_percent(self):
        """10,000 absent keys, each inside the table's key range, against
        a table of the ``compact`` shape (16 B keys, 100 B values, 4 KB
        blocks): at 10 bits per key at most 2 % reach a data block."""
        options = Options(block_bytes=4096, compression="lz77")
        rng = random.Random(1)
        present = range(0, 30_000, 3)
        rows = [
            (encode_internal_key(format_key(i), 1, KIND_VALUE), rng.randbytes(100))
            for i in present
        ]
        table = build(MemStorage(), "t.sst", rows, options)
        assert table.filter_layout() == "per-block"
        assert 30 <= len(rows) / table.num_blocks() <= 40
        absent = rng.sample([i for i in range(29_997) if i % 3], 10_000)
        false_positives = sum(
            table.get(lookup_key(format_key(i), MAX_SEQUENCE)) is not None for i in absent
        )
        assert false_positives <= 0.02 * len(absent)

    def test_no_filter_at_zero_bits_per_key(self):
        options = Options(block_bytes=512, bloom_bits_per_key=0)
        rows = entries(range(0, 300, 3))
        table = build(MemStorage(), "t.sst", rows, options)
        assert table.filter_layout() == "none"
        for ikey, value in rows:
            assert table.get(lookup_key(ikey[:-8], MAX_SEQUENCE)) == (ikey, value)

    @pytest.mark.parametrize("bits", [0, 10])
    def test_spliced_table_wide_block_gets_the_piece_its_keys_give(self, bits):
        """A spliced block from a table-wide input gets a piece built at
        the compaction's bits per key; none at zero."""
        options = Options(block_bytes=512, sstable_bytes=8 * 1024, compression="lz77",
                          bloom_bits_per_key=bits)
        storage = MemStorage()
        outputs, stats = compact(storage, [old(storage, "only.sst", entries(range(600)), options)],
                                 "out", options)
        assert stats.passthrough_blocks > 0
        layouts = {Table(storage.open(m.name), options).filter_layout() for m in outputs}
        assert layouts == ({"per-block"} if bits else {"none"})
        if bits:
            for meta in outputs:
                assert_one_format(storage, meta.name, options)
