"""The per-block filter pieces every writer writes: how many absent keys
they pass, and none at zero bits per key."""

import random

from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE, MAX_SEQUENCE, encode_internal_key, lookup_key
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table
from repro.workload import format_key

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
