"""On-disk SSTable framing shared by the builder and reader.

An SSTable file is::

    [data block + trailer] * N
    [filter block + trailer]
    [index block + trailer]
    [footer]

Each block trailer is 5 bytes: 1-byte compression type + 4-byte masked
CRC of the stored payload *including* the type byte.  The footer is a
fixed 48 bytes: filter handle + index handle (varint-encoded, zero
padded to 40 bytes) followed by an 8-byte magic number.

This module is the one place blocks are framed, in both directions:
:func:`read_block` (S1), :func:`block_checksum_ok` (S2) and
:func:`decompress_block` (S3) on the way in, :func:`compress_block`
(S5) and :func:`frame_block` (S6) on the way out.  The reader, every
writer and the compaction steps call these same functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..codec.checksum import Checksummer
from ..codec.compress import Codec, get_codec
from ..codec.varint import (
    decode_varint64,
    encode_varint64,
    get_fixed32,
    get_fixed64,
    put_fixed32,
    put_fixed64,
)
from ..devices.vfs import ReadableFile

__all__ = [
    "BLOCK_TRAILER_SIZE",
    "FOOTER_SIZE",
    "TABLE_MAGIC",
    "COMPRESSION_TAGS",
    "TAG_TO_CODEC",
    "BlockHandle",
    "Footer",
    "TableCorruption",
    "block_checksum_ok",
    "compress_block",
    "decode_block_contents",
    "decompress_block",
    "encode_block_contents",
    "frame_block",
    "read_block",
]

BLOCK_TRAILER_SIZE = 5
FOOTER_SIZE = 48
TABLE_MAGIC = 0x7075_6C73_6564_6273  # "pulsedbs"

COMPRESSION_TAGS = {"null": 0, "lz77": 1, "zlib": 2}
TAG_TO_CODEC = {v: k for k, v in COMPRESSION_TAGS.items()}


class TableCorruption(ValueError):
    """Raised when SSTable framing fails validation."""


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
    """Fixed-size table footer."""

    filter_handle: BlockHandle
    index_handle: BlockHandle
    num_entries: int

    def encode(self) -> bytes:
        body = self.filter_handle.encode() + self.index_handle.encode()
        if len(body) > 32:
            raise TableCorruption("footer handles too large")
        body += b"\x00" * (32 - len(body))
        return body + put_fixed64(self.num_entries) + put_fixed64(TABLE_MAGIC)

    @classmethod
    def decode(cls, buf: bytes) -> "Footer":
        if len(buf) != FOOTER_SIZE:
            raise TableCorruption(f"footer must be {FOOTER_SIZE} bytes")
        if get_fixed64(buf, 40) != TABLE_MAGIC:
            raise TableCorruption("bad table magic (not an SSTable?)")
        filter_handle, pos = BlockHandle.decode(buf, 0)
        index_handle, _ = BlockHandle.decode(buf, pos)
        num_entries = get_fixed64(buf, 32)
        return cls(filter_handle, index_handle, num_entries)


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
