"""Micro-benchmarks of the engine's hot paths (pytest-benchmark).

Not a paper figure: these time the substrate primitives the compaction
pipeline is built from, so regressions in the functional code are
visible independently of the virtual-time experiments.
"""

import random

import pytest

from repro.codec.checksum import crc32, crc32c_py
from repro.codec.compress import lz77_compress, lz77_decompress
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import (
    KIND_VALUE,
    Block,
    BlockBuilder,
    BloomFilterBuilder,
    MemTable,
    Options,
    bloom_hash,
    piece_hash,
    piece_hashes,
    encode_internal_key,
    internal_compare,
    merge_iterators,
)
from repro.server import ServerThread, SyncClient
from repro.server import protocol as P
from repro.workload import InsertWorkload, ValueGenerator, format_key

PAYLOAD = InsertWorkload(n=0)  # unused; keeps import meaningful


def _kv_blob(size: int) -> bytes:
    out = bytearray()
    i = 0
    while len(out) < size:
        out += b"user%012d=field-value-%04d;" % (i, i % 997)
        i += 1
    return bytes(out[:size])


@pytest.fixture(scope="module")
def blob64k():
    return _kv_blob(64 * 1024)


def test_bench_crc32c_software(benchmark, blob64k):
    benchmark(crc32c_py, blob64k)


def test_bench_crc32_zlib(benchmark, blob64k):
    benchmark(crc32, blob64k)


def test_bench_lz77_compress(benchmark, blob64k):
    benchmark(lz77_compress, blob64k)


def test_bench_lz77_decompress(benchmark, blob64k):
    compressed = lz77_compress(blob64k)
    benchmark(lz77_decompress, compressed)


# The compute-stage kernels (S4/S5 and the flush that shares them), on
# the two payload shapes of the repo benchmark (perf/): a ~4 KB data
# block of 16 B keys with 100 B or 1 KB values, each value its key index
# and version in front of a half-compressible ValueGenerator body.
PAYLOAD_SHAPES = {"100B-values": 100, "1KB-values": 1000}


def _block_entries(
    value_bytes: int, start: int = 0, step: int = 1, total: int = 4096
) -> list[tuple[bytes, bytes]]:
    values = ValueGenerator(value_bytes - 24, seed=101)
    entries, size = [], 0
    index = start
    while size < total:
        value = b"%016d:%06d:" % (index, 0) + values.value_for(index * 1_000_003)
        entries.append((encode_internal_key(format_key(index), 1, KIND_VALUE), value))
        size += 24 + len(value)
        index += step
    return entries


def _build_block(entries) -> bytes:
    builder = BlockBuilder(16, compare=internal_compare)
    for ikey, value in entries:
        builder.add(ikey, value)
    return builder.finish()


@pytest.fixture(scope="module", params=sorted(PAYLOAD_SHAPES))
def block_entries(request):
    return _block_entries(PAYLOAD_SHAPES[request.param])


def test_bench_lz77_compress_block(benchmark, block_entries):
    raw = _build_block(block_entries)
    packed = benchmark(lz77_compress, raw)
    assert lz77_decompress(packed) == raw


def test_bench_block_build(benchmark, block_entries):
    raw = benchmark(_build_block, block_entries)
    assert list(Block(raw, compare=internal_compare)) == block_entries


def test_bench_block_iterate(benchmark, block_entries):
    raw = _build_block(block_entries)
    entries = benchmark(lambda: list(Block(raw, compare=internal_compare)))
    assert entries == block_entries


# A compaction input block as S1 reads it from a table: the stored
# payload, with the filter piece and facts its index entry carries.
def _input_block(source, entries, codec, checksummer):
    from repro.core.steps import StoredBlock
    from repro.lsm.bloom import block_filter
    from repro.lsm.table_format import encode_block_contents, facts_of_entries

    return StoredBlock(
        source,
        encode_block_contents(_build_block(entries), codec, checksummer),
        block_filter([ikey[:-8] for ikey, _ in entries], 10),
        facts_of_entries(entries),
    )


# One input block of a compaction, two ways (report only): re-encoded
# by S2–S6, or — when no other run overlaps it — verified and handed on
# as stored, undecoded.
def _stored_block(entries):
    from repro.codec import get_checksummer, get_codec

    return [_input_block(0, entries, get_codec("lz77"), get_checksummer("crc32"))]


def test_bench_block_through_s2_s6(benchmark, block_entries):
    from repro.codec import get_checksummer, get_codec
    from repro.core import steps

    stored = _stored_block(block_entries)
    codec, checksummer = get_codec("lz77"), get_checksummer("crc32")

    def reencode():
        steps.step_checksum(stored, checksummer)
        merged = steps.step_merge(steps.step_decompress(stored), None, None, 1 << 20)
        return steps.step_rechecksum(steps.step_compress(merged, codec), checksummer)

    (block,) = benchmark(reencode)
    assert block.num_entries == len(block_entries) and not block.passthrough


def test_bench_block_passed_through(benchmark, block_entries):
    from repro.core.backends.threadbackend import run_subtask_compute

    stored = _stored_block(block_entries)
    (block,), _seconds = benchmark(
        run_subtask_compute, stored, 0, None, None, 1, "lz77", "crc32", 4096, 16,
        False, None,
    )
    assert block.num_entries == len(block_entries) and block.passthrough
    assert block.stored == stored[0].data


# One two-run sub-task of the `compact` workload's shape, two ways (report
# only): the upper run holds every key and the lower run the even ones,
# so S4 splices each upper block and merges nothing; or the upper run
# lacks one even key per block, whose older version every block's merge
# must then take in, so all of it is merged and compressed again.
SUBTASK_BLOCKS = 8
KEYS_PER_BLOCK = 36  # 16 B keys, 100 B values: ~4 KB blocks


def _compact_subtask(unshadowed: bool):
    from repro.codec import get_checksummer, get_codec

    codec, checksummer = get_codec("lz77"), get_checksummer("crc32")
    values = ValueGenerator(100 - 24, seed=101)

    def run(source, keys, seq):
        entries = [
            (
                encode_internal_key(format_key(i), seq, KIND_VALUE),
                b"%016d:%06d:" % (i, seq) + values.value_for(i * 1_000_003 + seq),
            )
            for i in keys
        ]
        return [
            _input_block(source, entries[b : b + KEYS_PER_BLOCK], codec, checksummer)
            for b in range(0, len(entries), KEYS_PER_BLOCK)
        ]

    n = SUBTASK_BLOCKS * KEYS_PER_BLOCK
    missing = {b + KEYS_PER_BLOCK // 2 for b in range(0, n, KEYS_PER_BLOCK)}
    upper = [i for i in range(n) if not (unshadowed and i in missing)]
    return run(0, upper, 2) + run(1, range(0, n, 2), 1)


@pytest.mark.parametrize("shape", ["spliced", "merged"])
def test_bench_two_run_subtask(benchmark, shape):
    from repro.core.backends.threadbackend import run_subtask_compute

    stored = _compact_subtask(unshadowed=shape == "merged")
    encoded, _seconds = benchmark(
        run_subtask_compute, stored, 0, None, None, 2, "lz77", "crc32", 4096, 16,
        False, None,
    )
    upper_blocks = {block.data for block in stored if block.source == 0}
    taken = [block for block in encoded if block.stored in upper_blocks]
    if shape == "spliced":
        assert len(taken) == len(encoded) == SUBTASK_BLOCKS
        assert all(block.reused and not block.passthrough for block in encoded)
    else:
        assert not taken and not any(block.reused for block in encoded)
    assert sum(block.num_entries for block in encoded) == (
        SUBTASK_BLOCKS * KEYS_PER_BLOCK
    )


# S5+S6 for one rebuilt block (report only).
def test_bench_block_s5_s6_compressed(benchmark, block_entries):
    from repro.codec import get_checksummer, get_codec
    from repro.core import steps

    codec, checksummer = get_codec("lz77"), get_checksummer("crc32")
    merged = steps.step_merge(
        steps.step_decompress(_stored_block(block_entries)), None, None, 1 << 20
    )
    (block,) = benchmark(
        lambda: steps.step_rechecksum(steps.step_compress(merged, codec), checksummer)
    )
    assert not block.reused


def test_bench_bloom_hash_16B_key(benchmark):
    keys = [format_key(i) for i in range(1000)]
    assert len(keys[0]) == 16
    benchmark(lambda: [bloom_hash(k) for k in keys])


# The per-key work every rebuilt block and every flushed block pays
# whatever the key shape, each kernel beside the plain loop it replaced
# (report only; divide by the row's key or entry count for per-key
# figures).  One data block's user keys: 36 of them with 100 B values,
# 5 with 1 KB values.
def test_bench_bloom_piece_hash_block_scalar(benchmark, block_entries):
    users = [ikey[:-8] for ikey, _ in block_entries]
    benchmark(lambda: [piece_hash(k) for k in users])


def test_bench_bloom_piece_hashes_block(benchmark, block_entries):
    users = [ikey[:-8] for ikey, _ in block_entries]
    assert benchmark(piece_hashes, users) == [piece_hash(k) for k in users]


# 640 keys' filter at 10 bits per key: a table-wide filter's size.
@pytest.fixture(scope="module")
def table_hashes():
    return piece_hashes([format_key(i) for i in range(640)])


def test_bench_bloom_filter_640_reference(benchmark, table_hashes):
    from tests.lsm.bloom_reference import filter_reference

    benchmark(filter_reference, table_hashes, 10)


def test_bench_bloom_filter_640(benchmark, table_hashes):
    from tests.lsm.bloom_reference import filter_reference

    def build():
        builder = BloomFilterBuilder(10)
        builder.add_hashes(table_hashes)
        return builder.finish()

    assert benchmark(build) == filter_reference(table_hashes, 10)


# One ~4 KB block decoded whole, entry by entry and in one loop.
def test_bench_block_decode_entry_by_entry(benchmark, block_entries):
    raw = _build_block(block_entries)
    entries = benchmark(lambda: list(Block(raw, compare=internal_compare)._iter_from(0, b"")))
    assert entries == block_entries


def test_bench_block_entries(benchmark, block_entries):
    raw = _build_block(block_entries)
    entries = benchmark(lambda: Block(raw, compare=internal_compare).entries())
    assert entries == block_entries


def test_bench_merge_two_sources(benchmark):
    # Interleaved runs, as S4 sees an upper and a lower component.
    evens = _block_entries(100, start=0, step=2)
    odds = _block_entries(100, start=1, step=2)
    merged = benchmark(lambda: list(merge_iterators([iter(evens), iter(odds)])))
    assert len(merged) == len(evens) + len(odds)
    assert merged[:2] == [evens[0], odds[0]]


# The flush: a 64 KB memtable built into one table by TableBuilder, the
# block cutter, S5/S6 framing and the table writer compaction also uses.
@pytest.mark.parametrize("shape", sorted(PAYLOAD_SHAPES))
def test_bench_flush_memtable(benchmark, shape):
    from repro.lsm import Table, TableBuilder

    entries = _block_entries(PAYLOAD_SHAPES[shape], total=64 * 1024)
    options = Options()

    def flush():
        storage = MemStorage()
        with storage.create("t.sst") as f:
            builder = TableBuilder(f, options)
            for ikey, value in entries:
                builder.add(ikey, value)
            builder.finish()
        return storage

    storage = benchmark(flush)
    assert list(Table(storage.open("t.sst"), options)) == entries


def test_bench_memtable_insert(benchmark):
    keys = [b"key-%08d" % random.Random(3).randrange(10**7) for _ in range(1000)]

    def insert_1000():
        mt = MemTable()
        for seq, key in enumerate(keys, 1):
            mt.put(seq, key, b"value")
        return mt

    benchmark(insert_1000)


def test_bench_memtable_get(benchmark):
    mt = MemTable()
    for i in range(10_000):
        mt.put(i + 1, b"key-%08d" % i, b"v")

    def get_100():
        for i in range(0, 10_000, 100):
            mt.get(b"key-%08d" % i)

    benchmark(get_100)


def test_bench_db_put_throughput(benchmark):
    options = Options(
        memtable_bytes=1 << 20, sstable_bytes=256 * 1024,
        level1_bytes=4 << 20, compression="zlib",
    )
    workload = list(InsertWorkload(n=2000, distribution="uniform"))

    def insert_2000():
        db = DB(MemStorage(), options)
        for key, value in workload:
            db.put(key, value)
        db.close()

    benchmark.pedantic(insert_2000, rounds=3, iterations=1)


def test_bench_db_get_after_compaction(benchmark):
    options = Options(
        memtable_bytes=64 * 1024, sstable_bytes=32 * 1024,
        level1_bytes=128 * 1024, level_multiplier=4, compression="zlib",
    )
    db = DB(MemStorage(), options)
    for key, value in InsertWorkload(n=5000, distribution="uniform", seed=7):
        db.put(key, value)
    db.flush()
    keys = [key for key, _ in InsertWorkload(n=200, distribution="uniform", seed=7)]

    def get_200():
        for key in keys:
            db.get(key)

    benchmark(get_200)
    db.close()


# The request fast path, one factor per benchmark: the four codec passes
# a request costs (encode + decode of request and response, checksum
# included), the non-waiting engine read beside the waiting one, and the
# round trips themselves.
FRAME_PAYLOADS = {"28B": 28, "128B": 128, "1KB": 1024}


@pytest.fixture(params=sorted(FRAME_PAYLOADS), scope="module")
def frame_value(request):
    return _kv_blob(FRAME_PAYLOADS[request.param])


def test_bench_request_codec(benchmark, frame_value):
    body = P.encode_lp(b"user%012d" % 7) + P.encode_lp(frame_value)

    def roundtrip():
        frame = P.encode_request(P.OP_PUT, 40_000, body)
        return P.decode_request(
            P.decode_frame(P.frame_length(frame[:4]), frame[4:])
        )

    assert roundtrip().body == body
    benchmark(roundtrip)


def test_bench_response_codec(benchmark, frame_value):
    body = P.encode_lp(frame_value)

    def roundtrip():
        frame = P.encode_response(P.ST_OK, 40_000, body)
        return P.decode_response(
            P.decode_frame(P.frame_length(frame[:4]), frame[4:])
        )

    assert roundtrip().body == body
    benchmark(roundtrip)


@pytest.fixture(scope="module")
def cached_store():
    """A compacted store that fits its block cache, every block warm."""
    options = Options(
        memtable_bytes=64 * 1024, sstable_bytes=32 * 1024,
        level1_bytes=256 * 1024, level_multiplier=4, compression="lz77",
        checksum="crc32", block_cache_entries=1024,
    )
    db = DB(MemStorage(), options)
    records = list(InsertWorkload(n=2000, distribution="uniform", seed=7))
    for key, value in records:
        db.put(key, value)
    db.flush()
    db.compact_range()
    keys = [key for key, _ in records[::10]]
    for key in keys:
        assert db.get(key) is not None
    yield db, keys
    db.close()


@pytest.mark.parametrize("wait", [True, False], ids=["wait", "nowait"])
def test_bench_db_get_cached_hit(benchmark, cached_store, wait):
    db, keys = cached_store

    def get_200():
        for key in keys:
            db.get(key, wait=wait)

    benchmark(get_200)


@pytest.fixture(scope="module")
def cached_server(cached_store):
    db, keys = cached_store
    with ServerThread(db, own_db=False) as handle:
        with SyncClient(handle.host, handle.port) as client:
            yield client, keys


# Report-only: client and server share this interpreter's GIL, so the
# absolute numbers are not the benchmark's (perf/ runs two processes).
def test_bench_ping_round_trip(benchmark, cached_server):
    client, _ = cached_server
    benchmark(client.ping)


def test_bench_cached_get_round_trip(benchmark, cached_server):
    client, keys = cached_server

    def get_200():
        for key in keys:
            client.get(key)

    benchmark(get_200)
