"""Tests for TableSink (write-stage table assembly)."""

import pytest

from repro.codec.checksum import get_checksummer
from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE, encode_internal_key, lookup_key
from repro.lsm.options import Options
from repro.lsm.table_format import encode_block_contents
from repro.lsm.table_reader import Table
from repro.lsm.table_sink import EncodedBlock, TableSink
from repro.codec.compress import get_codec
from repro.lsm.blockfmt import BlockBuilder
from repro.lsm.bloom import block_filter
from repro.lsm.ikey import internal_compare


def _ik(user, seq=1):
    return encode_internal_key(user, seq, KIND_VALUE)


def _encoded_block(users, options, seq=1):
    """Build one finished EncodedBlock over ``users`` (sorted)."""
    builder = BlockBuilder(options.block_restart_interval, compare=internal_compare)
    for user in users:
        builder.add(_ik(user, seq), b"val:" + user)
    raw = builder.finish()
    stored = encode_block_contents(
        raw, get_codec(options.compression), get_checksummer(options.checksum)
    )
    return EncodedBlock(
        stored=stored,
        first_key=_ik(users[0], seq),
        last_key=_ik(users[-1], seq),
        num_entries=len(users),
        filter=block_filter(users, options.bloom_bits_per_key),
        plain=True,
    )


@pytest.fixture()
def setup():
    storage = MemStorage()
    options = Options(sstable_bytes=2048, block_bytes=512, compression="null")
    counter = iter(range(1, 100))
    sink = TableSink(storage, options, lambda: f"{next(counter):06d}.sst")
    return storage, options, sink


class TestAssembly:
    def test_single_block_single_file(self, setup):
        storage, options, sink = setup
        sink.append(_encoded_block([b"a", b"b", b"c"], options))
        outputs = sink.finish()
        assert len(outputs) == 1
        table = Table(storage.open(outputs[0].name), options)
        assert [k[:-8] for k, _ in table] == [b"a", b"b", b"c"]
        assert table.num_entries == 3

    def test_cuts_files_at_size_limit(self, setup):
        storage, options, sink = setup
        for i in range(0, 300, 3):
            users = [b"key-%04d" % (i + j) for j in range(3)]
            sink.append(_encoded_block(users, options, seq=1))
        outputs = sink.finish()
        assert len(outputs) > 1
        # Outputs are disjoint and ordered.
        for a, b in zip(outputs, outputs[1:]):
            assert internal_compare(a.largest, b.smallest) < 0
        # And every key is findable through the bloom + index path.
        for meta in outputs:
            table = Table(storage.open(meta.name), options)
            probe = meta.smallest[:-8]
            hit = table.get(lookup_key(probe, 1 << 40))
            assert hit is not None

    def test_out_of_order_blocks_rejected(self, setup):
        _, options, sink = setup
        sink.append(_encoded_block([b"m", b"n"], options))
        with pytest.raises(ValueError):
            sink.append(_encoded_block([b"a", b"b"], options))

    def test_empty_block_skipped(self, setup):
        storage, options, sink = setup
        block = _encoded_block([b"x"], options)
        empty = EncodedBlock(
            stored=block.stored, first_key=block.first_key,
            last_key=block.last_key, num_entries=0,
        )
        sink.append(empty)
        assert sink.finish() == []

    def test_finish_without_blocks(self, setup):
        _, _, sink = setup
        assert sink.finish() == []
        assert sink.blocks_written == 0

    def test_counters(self, setup):
        _, options, sink = setup
        b1 = _encoded_block([b"a", b"b"], options)
        b2 = _encoded_block([b"c"], options)
        sink.append(b1)
        sink.append(b2)
        sink.finish()
        assert sink.blocks_written == 2
        assert sink.entries_written == 3
        assert sink.bytes_written == len(b1.stored) + len(b2.stored)

    def test_metadata_records_file_name(self, setup):
        storage, options, sink = setup
        sink.append(_encoded_block([b"a"], options))
        meta = sink.finish()[0]
        assert meta.file_name == meta.name
        assert storage.exists(meta.name)
        assert meta.file_size == storage.file_size(meta.name)

    def test_bloom_built_from_block_filters(self, setup):
        storage, options, sink = setup
        users = [b"present-%02d" % i for i in range(30)]
        sink.append(_encoded_block(users, options))
        meta = sink.finish()[0]
        table = Table(storage.open(meta.name), options)
        # Present keys found; absent keys mostly rejected by the bloom.
        for user in users[:5]:
            assert table.get(lookup_key(user, 1 << 40)) is not None
        rejected = sum(
            table.get(lookup_key(b"absent-%03d" % i, 1 << 40)) is None
            for i in range(50)
        )
        assert rejected >= 45
