"""Block facts in the index: each entry says its block's first key, entry
count and plain bit, and the footer marks the layout; a footer of any
other layout is corruption."""

import pytest

from repro.devices import MemStorage
from repro.lsm.ikey import KIND_DELETE, KIND_VALUE, MAX_SEQUENCE, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.table_builder import BlockCutter, TableBuilder
from repro.lsm.table_format import (
    LAYOUT_FACTS,
    BlockFacts,
    BlockHandle,
    Footer,
    TableCorruption,
    decode_block_facts,
    encode_block_facts,
    facts_of_entries,
)
from repro.lsm.table_reader import Table

OPTIONS = Options(block_bytes=512, sstable_bytes=8 * 1024, compression="lz77")


def ik(user, seq=1, kind=KIND_VALUE):
    return encode_internal_key(user, seq, kind)


def rows(keys, seq=1):
    return [(ik(b"key-%05d" % i, seq), b"value-%05d-%d;" % (i, seq) * 4) for i in keys]


def build(storage, name, entries, options=OPTIONS):
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for ikey, value in entries:
            builder.add(ikey, value)
        builder.finish()
    return Table(storage.open(name), options)


class TestEncoding:
    @pytest.mark.parametrize(
        "first, last",
        [
            (ik(b"key-00010", 2), ik(b"key-00042", 2)),
            (ik(b"same", 9), ik(b"same", 3)),  # one user key, two versions
            (ik(b"a"), ik(b"abc")),  # the first user key a prefix of the last
            (ik(b"abcde"), ik(b"abd")),  # the first longer than the last
            (ik(b""), ik(b"z")),
            (ik(b"x" * 300, MAX_SEQUENCE), ik(b"y" * 300)),  # varints past one byte
            (ik(b"k", 7, KIND_DELETE), ik(b"m")),
        ],
    )
    @pytest.mark.parametrize("count, plain", [(1, True), (30, False), (500, True)])
    def test_round_trip(self, first, last, count, plain):
        encoded = encode_block_facts(first, last, count, plain)
        buf = b"handle" + encoded + b"piece"
        facts, end = decode_block_facts(buf, 6, last)
        assert facts == BlockFacts(first, last, count, plain)
        assert buf[end:] == b"piece"

    def test_suffix_and_a_short_trailer(self):
        """The user key shares its prefix with the index key; a small
        sequence's trailer takes two bytes, not eight."""
        encoded = encode_block_facts(ik(b"key-00010", 2), ik(b"key-00042", 2), 30, True)
        assert encoded == bytes((7, 2)) + b"10" + bytes((0x81, 0x04)) + bytes((61,))

    def test_truncated_facts_are_corruption(self):
        last = ik(b"key-00042")
        encoded = encode_block_facts(ik(b"key-00010"), last, 3, True)
        for cut in range(len(encoded)):
            with pytest.raises(TableCorruption):
                decode_block_facts(encoded[:cut], 0, last)

    def test_shared_longer_than_the_index_key_is_corruption(self):
        with pytest.raises(TableCorruption):
            decode_block_facts(bytes((40, 0, 1, 2)), 0, ik(b"short"))

    def test_facts_of_entries(self):
        plain = [(ik(b"a", 3), b"1"), (ik(b"b", 2), b"2")]
        assert facts_of_entries(plain) == BlockFacts(plain[0][0], plain[1][0], 2, True)
        repeated = [(ik(b"a", 3), b"1"), (ik(b"a", 2), b"2")]
        assert not facts_of_entries(repeated).plain
        tombstone = [(ik(b"a", 3, KIND_DELETE), b""), (ik(b"b", 2), b"2")]
        assert not facts_of_entries(tombstone).plain


class TestCutterPlainBit:
    def cut(self, entries):
        blocks = []
        cutter = BlockCutter(1 << 20, 16, blocks.append)
        for ikey, value in entries:
            cutter.add(ikey, value)
        cutter.cut()
        return blocks

    @pytest.mark.parametrize(
        "entries",
        [
            [(ik(b"a"), b"v"), (ik(b"b"), b"v")],
            [(ik(b"a", 3), b"v"), (ik(b"a", 2), b"v")],
            [(ik(b"a"), b"v"), (ik(b"b", 1, KIND_DELETE), b"")],
            [(ik(b"a", 1, KIND_DELETE), b"")],
        ],
    )
    def test_matches_the_decoded_entries(self, entries):
        (block,) = self.cut(entries)
        assert block.plain == facts_of_entries(entries).plain

    def test_resets_between_blocks(self):
        blocks = []
        cutter = BlockCutter(1 << 20, 16, blocks.append)
        cutter.add(ik(b"a", 1, KIND_DELETE), b"")
        cutter.cut()
        cutter.add(ik(b"b"), b"v")
        cutter.cut()
        assert [b.plain for b in blocks] == [False, True]


class TestFooterLayout:
    def handles(self):
        return BlockHandle(1000, 5), BlockHandle(1010, 70)

    def test_round_trip(self):
        footer = Footer(*self.handles(), 12)
        encoded = footer.encode()
        assert encoded[31] == LAYOUT_FACTS
        assert Footer.decode(encoded) == footer

    def test_a_footer_written_before_the_layout_is_rejected(self):
        """The earlier writer padded the handles with zeros to 32 bytes."""
        body = self.handles()[0].encode() + self.handles()[1].encode()
        old = bytearray(Footer(*self.handles(), 12).encode())
        old[31] = 0
        assert old[:32] == body + b"\x00" * (32 - len(body))
        with pytest.raises(TableCorruption, match="unsupported index layout"):
            Footer.decode(bytes(old))

    def test_unknown_layout_is_corruption(self):
        raw = bytearray(Footer(*self.handles(), 12).encode())
        raw[31] = 7
        with pytest.raises(TableCorruption):
            Footer.decode(bytes(raw))


class TestTable:
    ROWS = rows(range(0, 900, 3))

    def test_index_carries_each_block_s_facts(self):
        table = build(MemStorage(), "t.sst", self.ROWS)
        handles = table.block_handles()
        facts = table.block_facts(handles)
        for handle, block_facts in zip(handles, facts):
            assert block_facts == facts_of_entries(table.block_entries(handle))
        assert sum(f.num_entries for f in facts) == len(self.ROWS)
        assert table.block_facts(handles[3:5]) == facts[3:5]

    def test_key_range_reads_no_data_block(self):
        table = build(MemStorage(), "t.sst", self.ROWS)

        def no_read(*_args, **_kw):
            raise AssertionError("key_range read a block")

        table._load_block = no_read
        assert table.key_range() == (self.ROWS[0][0], self.ROWS[-1][0])
