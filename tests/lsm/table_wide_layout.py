"""A table in the table-wide filter layout, written test-side.

Before each data block carried its own filter piece, the writer cut the
same data blocks, indexed each by its own last internal key with the
block's handle alone as the value, and stored one filter over every
user key of the table in the filter block.  Nothing in the engine writes
that layout any more; the reader and the compaction still take it.
This writes it byte for byte, the filter from the per-key reference
build (which the engine's old builder matched bit for bit).
"""

from __future__ import annotations

from repro.codec import get_checksummer, get_codec
from repro.lsm.blockfmt import BlockBuilder
from repro.lsm.ikey import internal_compare
from repro.lsm.options import Options
from repro.lsm.table_builder import BlockCutter
from repro.lsm.table_format import (
    BLOCK_TRAILER_SIZE,
    BlockHandle,
    Footer,
    encode_block_contents,
)
from tests.lsm.bloom_reference import filter_of_keys


def write_table_wide(storage, name: str, rows, options: Options) -> None:
    """Write ``rows`` (sorted entries) to ``name`` in the table-wide layout."""
    codec, checksummer = get_codec(options.compression), get_checksummer(options.checksum)
    blocks = []
    cutter = BlockCutter(options.block_bytes, options.block_restart_interval, blocks.append)
    for ikey, value in rows:
        cutter.add(ikey, value)
    cutter.cut()
    out = bytearray()
    index = BlockBuilder(1, compare=internal_compare)
    for block in blocks:
        stored = encode_block_contents(block.raw, codec, checksummer)
        index.add(block.last_key, BlockHandle(len(out), len(stored) - BLOCK_TRAILER_SIZE).encode())
        out += stored
    users = [ikey[:-8] for ikey, _ in rows]
    bits = options.bloom_bits_per_key
    filter_blob = filter_of_keys(users, bits) if users and bits > 0 else b""
    handles = []
    for blob in (filter_blob, index.finish()):
        stored = encode_block_contents(blob, get_codec("null"), checksummer)
        handles.append(BlockHandle(len(out), len(stored) - BLOCK_TRAILER_SIZE))
        out += stored
    out += Footer(*handles, len(rows)).encode()
    with storage.create(name) as f:
        f.append(bytes(out))
