"""A table in the per-block-piece layout, written test-side.

Before each index entry carried its block's facts, the writer cut the
same data blocks, indexed each by its own last internal key with the
block's handle and then its filter piece as the value, wrote an empty
filter block, and left the footer's layout byte 0.  Nothing in the
engine writes that layout any more; the reader and the compaction still
take it.  This writes it byte for byte.
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


def write_piece_layout(storage, name: str, rows, options: Options) -> None:
    """Write ``rows`` (sorted entries) to ``name`` in the per-block-piece
    layout."""
    codec, checksummer = get_codec(options.compression), get_checksummer(options.checksum)
    blocks = []
    cutter = BlockCutter(
        options.block_bytes, options.block_restart_interval, blocks.append,
        options.bloom_bits_per_key,
    )
    for ikey, value in rows:
        cutter.add(ikey, value)
    cutter.cut()
    out = bytearray()
    index = BlockBuilder(1, compare=internal_compare)
    for block in blocks:
        stored = encode_block_contents(block.raw, codec, checksummer)
        handle = BlockHandle(len(out), len(stored) - BLOCK_TRAILER_SIZE)
        index.add(block.last_key, handle.encode() + block.filter)
        out += stored
    handles = []
    for blob in (b"", index.finish()):
        stored = encode_block_contents(blob, get_codec("null"), checksummer)
        handles.append(BlockHandle(len(out), len(stored) - BLOCK_TRAILER_SIZE))
        out += stored
    out += Footer(*handles, len(rows)).encode()
    with storage.create(name) as f:
        f.append(bytes(out))
