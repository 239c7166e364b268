"""The seven compaction steps (paper §II-A, Figure 2).

Each function is one step of the per-data-block compaction procedure:

=====  ===========  ==============================================
step   resource     function
=====  ===========  ==============================================
S1     I/O          :func:`step_read` — fetch stored blocks
S2     CPU          :func:`step_checksum` — verify block integrity
S3     CPU          :func:`step_decompress` — restore raw blocks
S4     CPU          :func:`step_merge` — merge-sort the key range,
                    build new data blocks
S5     CPU          :func:`step_compress` — compress new blocks
S6     CPU          :func:`step_rechecksum` — checksum new blocks
S7     I/O          :func:`step_write` — append to output tables
=====  ===========  ==============================================

They are *functional*: every procedure variant (SCP, PCP, S-PPCP,
C-PPCP) composes exactly these functions, so the merged output is
bit-identical regardless of scheduling — the property the paper relies
on ("there is no data dependency among the data blocks") and that our
equivalence tests assert.

S2+S3 and S5+S6 are fused into the on-disk framing helpers of
:mod:`repro.lsm.table_format` at the byte level, but are exposed here
as distinct steps so profiling can attribute time per step (Figs 5,
8, 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Mapping, Optional, Sequence

from ..codec.checksum import Checksummer
from ..codec.compress import Codec
from ..codec.varint import get_fixed32
from ..devices.vfs import ReadableFile
from ..lsm.blockfmt import Block, BlockBuilder
from ..lsm.bloom import bloom_hashes
from ..lsm.ikey import (
    KIND_DELETE,
    MAX_SEQUENCE,
    decode_internal_key,
    internal_compare,
)
from ..lsm.iterators import merge_iterators
from ..lsm.table_format import (
    BLOCK_TRAILER_SIZE,
    COMPRESSION_TAGS,
    TAG_TO_CODEC,
    TableCorruption,
)
from ..lsm.table_sink import EncodedBlock

__all__ = [
    "StoredBlock",
    "RawBlock",
    "MergedBlock",
    "step_read",
    "step_checksum",
    "step_decompress",
    "step_merge",
    "step_compress",
    "step_rechecksum",
    "step_write",
    "passthrough_blocks",
]


@dataclass(frozen=True)
class StoredBlock:
    """S1 output: a block exactly as stored (payload + trailer)."""

    source: int  # which input run this came from
    data: bytes


@dataclass(frozen=True)
class RawBlock:
    """S3 output: a decompressed, parseable block."""

    source: int
    raw: bytes


@dataclass(frozen=True)
class MergedBlock:
    """S4 output: a rebuilt (uncompressed) data block with metadata."""

    raw: bytes
    first_key: bytes
    last_key: bytes
    num_entries: int
    key_hashes: tuple[int, ...]


def step_read(
    files: Sequence[ReadableFile],
    handles_per_source: Sequence[Sequence["object"]],
) -> list[StoredBlock]:
    """S1 READ: fetch each input block (with its trailer) from disk."""
    out: list[StoredBlock] = []
    for source, (file, handles) in enumerate(zip(files, handles_per_source)):
        for handle in handles:
            stored = file.pread(handle.offset, handle.size + BLOCK_TRAILER_SIZE)
            if len(stored) != handle.size + BLOCK_TRAILER_SIZE:
                raise TableCorruption(
                    f"short read: offset {handle.offset} in source {source}"
                )
            out.append(StoredBlock(source, stored))
    return out


def step_checksum(blocks: Sequence[StoredBlock], checksummer: Checksummer) -> None:
    """S2 CHECKSUM: verify each block against its stored trailer CRC."""
    for block in blocks:
        payload_and_tag = block.data[:-4]
        crc = get_fixed32(block.data, len(block.data) - 4)
        if not checksummer.verify(payload_and_tag, crc):
            raise TableCorruption(
                f"compaction input checksum mismatch (source {block.source})"
            )


def step_decompress(blocks: Sequence[StoredBlock]) -> list[RawBlock]:
    """S3 DECOMPRESS: restore the original block contents."""
    from ..codec.compress import get_codec

    out: list[RawBlock] = []
    for block in blocks:
        tag = block.data[-BLOCK_TRAILER_SIZE]
        try:
            codec_name = TAG_TO_CODEC[tag]
        except KeyError:
            raise TableCorruption(f"unknown compression tag {tag}") from None
        payload = block.data[:-BLOCK_TRAILER_SIZE]
        out.append(RawBlock(block.source, get_codec(codec_name).decompress(payload)))
    return out


def step_merge(
    blocks: Sequence[RawBlock],
    lower_bound: Optional[bytes],
    upper_bound: Optional[bytes],
    block_bytes: int,
    restart_interval: int = 16,
    drop_deletes: bool = False,
    n_sources: Optional[int] = None,
    smallest_snapshot: Optional[int] = None,
) -> list[MergedBlock]:
    """S4 SORT: merge entries in [lower, upper) user-key range.

    * Sources are merged newest-first: blocks from source 0 shadow
      blocks from source 1, etc. (callers pass the upper component
      before the lower component).
    * A version is dropped when a newer version of the same user key
      has sequence <= ``smallest_snapshot`` (LevelDB's rule: nothing
      can ever observe the older one).  With no live snapshots
      (``smallest_snapshot=None``) only the newest version survives.
    * Tombstones are dropped only when ``drop_deletes`` (no older data
      below the output level) *and* no snapshot can still see them.
    * Output is re-blocked into ``block_bytes``-sized data blocks.
    """
    n_sources = n_sources if n_sources is not None else (
        max((b.source for b in blocks), default=-1) + 1
    )
    streams: list[Iterator[tuple[bytes, bytes]]] = []
    for source in range(n_sources):
        source_blocks = [b for b in blocks if b.source == source]
        streams.append(_entries_of(source_blocks))
    merged = merge_iterators(streams)
    if smallest_snapshot is None:
        smallest_snapshot = MAX_SEQUENCE
    out: list[MergedBlock] = []
    builder = BlockBuilder(restart_interval, compare=internal_compare)
    first_key: Optional[bytes] = None
    last_key: Optional[bytes] = None
    users: list[bytes] = []  # the open block's user keys, hashed when it closes
    prev_user: Optional[bytes] = None
    last_seq_for_key = MAX_SEQUENCE + 1

    def _flush() -> None:
        nonlocal builder, first_key, last_key, users
        if builder.empty:
            return
        out.append(
            MergedBlock(
                raw=builder.finish(),
                first_key=first_key,
                last_key=last_key,
                num_entries=builder.num_entries,
                key_hashes=tuple(bloom_hashes(users)),
            )
        )
        builder = BlockBuilder(restart_interval, compare=internal_compare)
        first_key = None
        last_key = None
        users = []

    for ikey, value in merged:
        user, seq, kind = decode_internal_key(ikey)
        if lower_bound is not None and user < lower_bound:
            continue
        if upper_bound is not None and user >= upper_bound:
            continue
        if user != prev_user:
            prev_user = user
            last_seq_for_key = MAX_SEQUENCE + 1
        drop = False
        if last_seq_for_key <= smallest_snapshot:
            # A newer version visible to every snapshot shadows this one.
            drop = True
        elif kind == KIND_DELETE and seq <= smallest_snapshot and drop_deletes:
            drop = True
        last_seq_for_key = seq
        if drop:
            continue
        if first_key is None:
            first_key = ikey
        builder.add(ikey, value)
        last_key = ikey
        users.append(user)
        if builder.current_size_estimate() >= block_bytes:
            _flush()
    _flush()
    return out


def _entries_of(blocks: Sequence[RawBlock]) -> Iterator[tuple[bytes, bytes]]:
    # chain: the merge pulls entries straight from each decoded block.
    return chain.from_iterable(
        Block(b.raw, compare=internal_compare).entries() for b in blocks
    )


def step_compress(
    blocks: Sequence[MergedBlock],
    codec: Codec,
    stored_as: Optional[Mapping[bytes, bytes]] = None,
) -> list[tuple[MergedBlock, bytes, int, bool]]:
    """S5 COMPRESS: compress each rebuilt block.

    Returns ``(merged, payload, tag, reused)`` tuples; incompressible
    blocks fall back to the ``null`` tag (same heuristic as the table
    builder).

    ``stored_as`` maps the decompressed bytes of input blocks to those
    blocks as stored, after S2 verified and S3 decompressed them.  A
    rebuilt block found there — an overwrite of equal size moves no
    block boundary, so S4 often rebuilds what S3 just produced — takes
    the stored payload instead of compressing again (``reused``): those
    bytes decompress to exactly this block.  As for pass-through, only
    under ``codec``'s own tag, so the output never mixes codecs.
    """
    tag = COMPRESSION_TAGS[codec.name]
    out = []
    for block in blocks:
        stored = stored_as.get(block.raw) if stored_as else None
        if stored is not None and stored[-BLOCK_TRAILER_SIZE] == tag:
            out.append((block, stored[:-BLOCK_TRAILER_SIZE], tag, True))
            continue
        compressed = codec.compress(block.raw)
        if codec.name != "null" and len(compressed) < len(block.raw):
            out.append((block, compressed, tag, False))
        else:
            out.append((block, block.raw, COMPRESSION_TAGS["null"], False))
    return out


def step_rechecksum(
    compressed: Sequence[tuple[MergedBlock, bytes, int, bool]],
    checksummer: Checksummer,
) -> list[EncodedBlock]:
    """S6 RE-CHECKSUM: frame each compressed block with trailer CRC."""
    from ..codec.varint import put_fixed32

    out: list[EncodedBlock] = []
    for block, payload, tag, reused in compressed:
        crc = checksummer.masked(payload + bytes([tag]))
        stored = payload + bytes([tag]) + put_fixed32(crc)
        out.append(
            EncodedBlock(
                stored=stored,
                first_key=block.first_key,
                last_key=block.last_key,
                num_entries=block.num_entries,
                key_hashes=block.key_hashes,
                uncompressed_bytes=len(block.raw),
                reused=reused,
            )
        )
    return out


def passthrough_blocks(
    stored: Sequence[StoredBlock],
    raw: Sequence[RawBlock],
    lower_bound: Optional[bytes],
    upper_bound: Optional[bytes],
    codec: Codec,
    drop_deletes: bool = False,
    smallest_snapshot: Optional[int] = None,
) -> list[Optional[EncodedBlock]]:
    """Which blocks of one run S4–S6 would only reproduce, ready for S7.

    ``stored``/``raw`` are consecutive blocks of a single run, after S2
    and S3, with no other run holding keys in ``[lower, upper)``.  One
    scan of a block's keys gives the sink its metadata and decides: the
    block is handed on as stored — an :class:`EncodedBlock` around the
    very bytes S1 read — when the merge would keep every entry of it and
    nothing else, and S5 would store it under the same tag:

    * every key lies inside ``[lower, upper)``;
    * no user key occurs twice, in the block or across its edge into a
      neighbour — with one version per key the merge has nothing to
      shadow (and a neighbour sharing a key is held back with it, so the
      merge that does see both sees all versions);
    * no tombstone that ``drop_deletes`` would drop from under every
      snapshot;
    * the trailer carries ``codec``'s own tag — not ``null`` for a block
      that did not shrink, nor a codec the table was written under
      before the option changed.

    Every other position holds None: that block takes S4–S6.
    """
    if smallest_snapshot is None:
        smallest_snapshot = MAX_SEQUENCE
    tag = COMPRESSION_TAGS[codec.name]
    keys = [[ikey for ikey, _ in Block(b.raw, compare=internal_compare).entries()] for b in raw]
    edges = [(k[0][:-8], k[-1][:-8]) if k else (None, None) for k in keys]
    out: list[Optional[EncodedBlock]] = []
    for i, (block, ikeys) in enumerate(zip(stored, keys)):
        first, last = edges[i]
        users = [ikey[:-8] for ikey in ikeys]
        if (
            not ikeys
            or block.data[-BLOCK_TRAILER_SIZE] != tag
            or (lower_bound is not None and first < lower_bound)
            or (upper_bound is not None and last >= upper_bound)
            or len(set(users)) != len(users)
            or (i > 0 and edges[i - 1][1] == first)
            or (i + 1 < len(edges) and edges[i + 1][0] == last)
            or (
                drop_deletes
                and any(
                    ikey[-8] == KIND_DELETE
                    and decode_internal_key(ikey)[1] <= smallest_snapshot
                    for ikey in ikeys
                )
            )
        ):
            out.append(None)
            continue
        out.append(
            EncodedBlock(
                stored=block.data,
                first_key=ikeys[0],
                last_key=ikeys[-1],
                num_entries=len(ikeys),
                key_hashes=tuple(bloom_hashes(users)),
                uncompressed_bytes=len(raw[i].raw),
                passthrough=True,
            )
        )
    return out


def step_write(blocks: Sequence[EncodedBlock], sink) -> int:
    """S7 WRITE: append finished blocks to the output table sink.

    Returns the number of stored bytes written.
    """
    written = 0
    for block in blocks:
        sink.append(block)
        written += len(block.stored)
    return written
