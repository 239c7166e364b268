"""On-disk SSTable framing shared by the builder and reader.

An SSTable file is::

    [data block + trailer] * N
    [filter block + trailer]
    [index block + trailer]
    [footer]

Each block trailer is 5 bytes: 1-byte compression type + 4-byte masked
CRC of the stored payload *including* the type byte.  The footer is a
fixed 48 bytes: filter handle + index handle (varint-encoded, zero
padded to 31 bytes), the index layout byte (:data:`LAYOUT_FACTS`), the
entry count (fixed64) and an 8-byte magic number.

Each index entry's value is the data block's handle, then the block's
:class:`BlockFacts` (:func:`encode_block_facts`), then its filter
piece.  The filter block is empty.  A footer whose layout byte is not
:data:`LAYOUT_FACTS` — a table written before the facts, where that
byte was zero padding — is rejected (:class:`UnsupportedTableFormat`).

This module is the one place blocks are framed, in both directions:
:func:`read_block` (S1), :func:`block_checksum_ok` (S2) and
:func:`decompress_block` (S3) on the way in, :func:`compress_block`
(S5) and :func:`frame_block` (S6) on the way out.  The reader, every
writer and the compaction steps call these same functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..codec.checksum import Checksummer
from ..codec.compress import Codec, get_codec
from ..codec.varint import (
    BYTE,
    decode_varint64,
    encode_varint64,
    get_fixed32,
    get_fixed64,
    put_fixed32,
    put_fixed64,
)
from ..devices.vfs import ReadableFile
from .ikey import KIND_DELETE

__all__ = [
    "BLOCK_TRAILER_SIZE",
    "FOOTER_SIZE",
    "TABLE_MAGIC",
    "COMPRESSION_TAGS",
    "TAG_TO_CODEC",
    "LAYOUT_FACTS",
    "BlockFacts",
    "BlockHandle",
    "Footer",
    "TableCorruption",
    "UnsupportedTableFormat",
    "block_checksum_ok",
    "compress_block",
    "decode_block_contents",
    "decode_block_facts",
    "decompress_block",
    "encode_block_contents",
    "encode_block_facts",
    "facts_of_entries",
    "frame_block",
    "read_block",
]

BLOCK_TRAILER_SIZE = 5
FOOTER_SIZE = 48
TABLE_MAGIC = 0x7075_6C73_6564_6273  # "pulsedbs"

COMPRESSION_TAGS = {"null": 0, "lz77": 1, "zlib": 2}
TAG_TO_CODEC = {v: k for k, v in COMPRESSION_TAGS.items()}

#: The footer's layout byte: each index entry is handle · block facts ·
#: filter piece.
LAYOUT_FACTS = 1


class TableCorruption(ValueError):
    """Raised when SSTable framing fails validation."""


class UnsupportedTableFormat(TableCorruption):
    """A footer naming a layout this reader does not read: not damage,
    so compaction and repair stop rather than quarantine or drop it."""


@dataclass(frozen=True)
class BlockHandle:
    """Location of a block within the file (offset/size of payload)."""

    offset: int
    size: int

    def encode(self) -> bytes:
        return encode_varint64(self.offset) + encode_varint64(self.size)

    @classmethod
    def decode(cls, buf: bytes, pos: int = 0) -> tuple["BlockHandle", int]:
        offset, pos = decode_varint64(buf, pos)
        size, pos = decode_varint64(buf, pos)
        return cls(offset, size), pos


@dataclass(frozen=True)
class Footer:
    """Fixed-size table footer.

    Byte 31, the last byte of the handles' zero padding, is
    :data:`LAYOUT_FACTS`; a table written before it existed holds 0
    there, and does not decode.
    """

    filter_handle: BlockHandle
    index_handle: BlockHandle
    num_entries: int

    def encode(self) -> bytes:
        body = self.filter_handle.encode() + self.index_handle.encode()
        if len(body) > 31:
            raise TableCorruption("footer handles too large")
        body += b"\x00" * (31 - len(body)) + BYTE[LAYOUT_FACTS]
        return body + put_fixed64(self.num_entries) + put_fixed64(TABLE_MAGIC)

    @classmethod
    def decode(cls, buf: bytes) -> "Footer":
        if len(buf) != FOOTER_SIZE:
            raise TableCorruption(f"footer must be {FOOTER_SIZE} bytes")
        if get_fixed64(buf, 40) != TABLE_MAGIC:
            raise TableCorruption("bad table magic (not an SSTable?)")
        filter_handle, pos = BlockHandle.decode(buf, 0)
        index_handle, pos = BlockHandle.decode(buf, pos)
        # Handles long enough to reach byte 31 leave no room for it.
        if pos > 31 or buf[31] != LAYOUT_FACTS:
            raise UnsupportedTableFormat("unsupported index layout")
        return cls(filter_handle, index_handle, get_fixed64(buf, 32))


class BlockFacts(NamedTuple):
    """What an index entry says of its data block.

    ``first_key`` and ``last_key`` are the block's first and last
    internal keys (the last is the entry's own index key);
    ``num_entries`` its entry count.  ``plain``: every user key occurs
    once in the block and none is a tombstone.
    """

    first_key: bytes
    last_key: bytes
    num_entries: int
    plain: bool


def facts_of_entries(entries: list[tuple[bytes, bytes]]) -> BlockFacts:
    """The facts a (non-empty) block's decoded ``entries`` give."""
    users = [ikey[:-8] for ikey, _ in entries]
    plain = len(set(users)) == len(users) and all(
        ikey[-8] != KIND_DELETE for ikey, _ in entries
    )
    return BlockFacts(entries[0][0], entries[-1][0], len(entries), plain)


def encode_block_facts(
    first_key: bytes, last_key: bytes, num_entries: int, plain: bool
) -> bytes:
    """A block's facts as its index entry stores them, after the handle.

    ``varint shared · varint n · suffix · varint trailer · varint
    (num_entries << 1 | plain)``: the first key's user key is the last
    key's first ``shared`` bytes and the ``n``-byte ``suffix``, and
    ``trailer`` is the first key's 8-byte trailer read as a
    little-endian number.  The varints are written without a call each:
    every flush and compaction encodes one set per block it writes.
    """
    user = first_key[:-8]
    shared = 0
    for a, b in zip(user, last_key[:-8]):
        if a != b:
            break
        shared += 1
    out = b""
    for value in (shared, len(user) - shared):
        while value >= 0x80:
            out += BYTE[value & 0x7F | 0x80]
            value >>= 7
        out += BYTE[value]
    out += user[shared:]
    for value in (int.from_bytes(first_key[-8:], "little"), num_entries << 1 | plain):
        while value >= 0x80:
            out += BYTE[value & 0x7F | 0x80]
            value >>= 7
        out += BYTE[value]
    return out


def decode_block_facts(
    buf: bytes, pos: int, last_key: bytes
) -> tuple[BlockFacts, int]:
    """The facts :func:`encode_block_facts` wrote at ``buf[pos:]`` for
    the block whose last internal key is ``last_key``, and the offset
    just past them.  One-byte varints are read in place: a table parses
    the facts of every block when it opens."""
    try:
        shared = buf[pos]
        if shared < 0x80:
            pos += 1
        else:
            shared, pos = decode_varint64(buf, pos)
        n = buf[pos]
        if n < 0x80:
            pos += 1
        else:
            n, pos = decode_varint64(buf, pos)
        trailer, end = decode_varint64(buf, pos + n)
        shape = buf[end]
        if shape < 0x80:
            end += 1
        else:
            shape, end = decode_varint64(buf, end)
    except (IndexError, ValueError) as exc:
        raise TableCorruption(f"bad block facts: {exc}") from None
    if shared > len(last_key) - 8:
        raise TableCorruption("bad block facts")
    first_key = last_key[:shared] + buf[pos : pos + n] + trailer.to_bytes(8, "little")
    return BlockFacts(first_key, last_key, shape >> 1, shape & 1 == 1), end


def compress_block(raw: bytes, codec: Codec) -> tuple[bytes, int]:
    """S5: ``(payload, tag)`` — ``raw`` compressed by ``codec``, or
    ``raw`` itself under the ``null`` tag where compressing does not
    shrink it (LevelDB's 12.5 %-savings heuristic simplified to "must
    strictly shrink")."""
    if codec.name != "null":
        compressed = codec.compress(raw)
        if len(compressed) < len(raw):
            return compressed, COMPRESSION_TAGS[codec.name]
    return raw, COMPRESSION_TAGS["null"]


def frame_block(payload: bytes, tag: int, checksummer: Checksummer) -> bytes:
    """S6: ``payload`` with its trailer, the tag and the masked CRC of
    payload + tag."""
    body = payload + bytes((tag,))
    return body + put_fixed32(checksummer.masked(body))


def encode_block_contents(
    raw: bytes, codec: Codec, checksummer: Checksummer
) -> bytes:
    """S5 + S6: ``raw`` as stored, compressed or not, with its trailer."""
    return frame_block(*compress_block(raw, codec), checksummer)


def block_checksum_ok(stored: bytes, checksummer: Checksummer) -> bool:
    """S2: does the trailer's CRC match the payload and tag it covers?"""
    return checksummer.verify(stored[:-4], get_fixed32(stored, len(stored) - 4))


def decompress_block(stored: bytes) -> bytes:
    """S3: the raw block inside ``stored``, decompressed by its tag."""
    tag = stored[-BLOCK_TRAILER_SIZE]
    try:
        codec_name = TAG_TO_CODEC[tag]
    except KeyError:
        raise TableCorruption(f"unknown compression tag {tag}") from None
    return get_codec(codec_name).decompress(stored[:-BLOCK_TRAILER_SIZE])


def decode_block_contents(
    stored: bytes, checksummer: Checksummer, verify: bool = True
) -> bytes:
    """S2 (when ``verify``) + S3: the raw block inside ``stored``."""
    if len(stored) < BLOCK_TRAILER_SIZE:
        raise TableCorruption("block shorter than trailer")
    if verify and not block_checksum_ok(stored, checksummer):
        raise TableCorruption("block checksum mismatch")
    return decompress_block(stored)


def read_block(
    file: ReadableFile, handle: BlockHandle, wait: bool = True
) -> Optional[bytes]:
    """Read a block's stored bytes (payload + trailer) from a file (S1).

    ``wait=False`` reads only what the OS holds without waiting for the
    device (:meth:`ReadableFile.try_pread`) and returns None otherwise.
    """
    length = handle.size + BLOCK_TRAILER_SIZE
    if wait:
        stored = file.pread(handle.offset, length)
    else:
        stored = file.try_pread(handle.offset, length)
        if stored is None:
            return None
    if len(stored) != length:
        raise TableCorruption(
            f"short block read at offset {handle.offset}: "
            f"wanted {length}, got {len(stored)}"
        )
    return stored
