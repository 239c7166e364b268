"""The seven compaction steps (paper §II-A, Figure 2).

Each function is one step of the per-data-block compaction procedure:

=====  ===========  ==============================================
step   resource     function
=====  ===========  ==============================================
S1     I/O          :func:`step_read` — fetch stored blocks
S2     CPU          :func:`step_checksum` — verify block integrity
S3     CPU          :func:`step_decompress` — restore raw blocks
                    (all but those :func:`spliced_by_facts` marks)
S4     CPU          :func:`step_splice` — merge-sort the key range,
                    build new data blocks; splice in as stored
                    the input blocks the merge would reproduce
                    (:func:`step_merge` is the merge alone)
S5     CPU          :func:`step_compress` — compress new blocks
S6     CPU          :func:`step_rechecksum` — checksum new blocks
S7     I/O          :func:`step_write` — append to output tables
=====  ===========  ==============================================

They are *functional*: every procedure variant (SCP, PCP, S-PPCP,
C-PPCP) composes exactly these functions, so the merged output is
bit-identical regardless of scheduling — the property the paper relies
on ("there is no data dependency among the data blocks") and that our
equivalence tests assert.

A step's per-block work is the table format's own code, shared with
the reader and the flush: S1, S2, S3, S5 and S6 are the framing
functions of :mod:`repro.lsm.table_format`, and S4 cuts its output
with :class:`repro.lsm.table_builder.BlockCutter`.  They are distinct
steps here so profiling can attribute time per step (Figs 5, 8, 9).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence, Union

from ..codec.checksum import Checksummer
from ..codec.compress import Codec
from ..devices.vfs import ReadableFile
from ..lsm.blockfmt import Block
from ..lsm.bloom import block_filter
from ..lsm.ikey import (
    KIND_DELETE,
    MAX_SEQUENCE,
    decode_internal_key,
    internal_compare,
)
from ..lsm.iterators import merge_iterators
from ..lsm.table_builder import BlockCutter, EncodedBlock, MergedBlock
from ..lsm.table_format import (
    BLOCK_TRAILER_SIZE,
    COMPRESSION_TAGS,
    BlockFacts,
    TableCorruption,
    block_checksum_ok,
    compress_block,
    decompress_block,
    frame_block,
    read_block,
)

__all__ = [
    "StoredBlock",
    "RawBlock",
    "MergedBlock",
    "step_read",
    "step_checksum",
    "step_decompress",
    "step_merge",
    "spliced_by_facts",
    "step_splice",
    "step_compress",
    "step_rechecksum",
    "step_write",
]


@dataclass(frozen=True)
class StoredBlock:
    """S1 output: a block exactly as stored (payload + trailer), and
    from the input table's index its filter piece (``b""`` where the
    table was written without filters) and its facts, which
    :func:`spliced_by_facts` and :func:`step_splice` need (None only for
    S3 and :func:`step_merge` alone)."""

    source: int  # which input run this came from
    data: bytes
    filter: bytes = b""
    facts: Optional[BlockFacts] = None


@dataclass(frozen=True)
class RawBlock:
    """S3 output: a decompressed, parseable block."""

    source: int
    raw: bytes


def step_read(
    files: Sequence[ReadableFile],
    handles_per_source: Sequence[Sequence["object"]],
    filters_per_source: Optional[Sequence[Sequence[bytes]]] = None,
    facts_per_source: Optional[Sequence[Sequence[Optional[BlockFacts]]]] = None,
) -> list[StoredBlock]:
    """S1 READ: fetch each input block (with its trailer) from disk,
    with its filter piece and facts where the caller passes them."""
    if filters_per_source is None:
        filters_per_source = [[b""] * len(handles) for handles in handles_per_source]
    if facts_per_source is None:
        facts_per_source = [[None] * len(handles) for handles in handles_per_source]
    return [
        StoredBlock(source, read_block(file, handle), piece, facts)
        for source, (file, handles, pieces, facts_of_run) in enumerate(
            zip(files, handles_per_source, filters_per_source, facts_per_source)
        )
        for handle, piece, facts in zip(handles, pieces, facts_of_run)
    ]


def step_checksum(blocks: Sequence[StoredBlock], checksummer: Checksummer) -> None:
    """S2 CHECKSUM: verify each block against its stored trailer CRC."""
    for block in blocks:
        if not block_checksum_ok(block.data, checksummer):
            raise TableCorruption(
                f"compaction input checksum mismatch (source {block.source})"
            )


def step_decompress(
    blocks: Sequence[StoredBlock], skip: Optional[Sequence[bool]] = None
) -> list[Optional[RawBlock]]:
    """S3 DECOMPRESS: restore the original block contents, in place of
    None for each block ``skip`` marks (:func:`spliced_by_facts`)."""
    if skip is None:
        skip = [False] * len(blocks)
    return [
        None if skipped else RawBlock(block.source, decompress_block(block.data))
        for block, skipped in zip(blocks, skip)
    ]


def step_merge(
    blocks: Sequence[RawBlock],
    lower_bound: Optional[bytes],
    upper_bound: Optional[bytes],
    block_bytes: int,
    restart_interval: int = 16,
    drop_deletes: bool = False,
    n_sources: Optional[int] = None,
    smallest_snapshot: Optional[int] = None,
    bloom_bits_per_key: int = 10,
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
    * Output is re-blocked into ``block_bytes``-sized data blocks, each
      with its filter piece at ``bloom_bits_per_key``.

    :func:`step_splice` is the compaction's S4: this merge, run only
    where it would change something.
    """
    n_sources = n_sources if n_sources is not None else (
        max((b.source for b in blocks), default=-1) + 1
    )
    streams = [
        _entries_of([b for b in blocks if b.source == source])
        for source in range(n_sources)
    ]
    return _merge(
        streams, lower_bound, upper_bound, block_bytes, restart_interval,
        drop_deletes, smallest_snapshot, bloom_bits_per_key,
    )


def _merge(
    streams: Sequence[Iterable[tuple[bytes, bytes]]],
    lower_bound: Optional[bytes],
    upper_bound: Optional[bytes],
    block_bytes: int,
    restart_interval: int,
    drop_deletes: bool,
    smallest_snapshot: Optional[int],
    bloom_bits_per_key: int,
) -> list[MergedBlock]:
    """:func:`step_merge` on entry streams, newest source first."""
    if smallest_snapshot is None:
        smallest_snapshot = MAX_SEQUENCE
    out: list[MergedBlock] = []
    cutter = BlockCutter(block_bytes, restart_interval, out.append, bloom_bits_per_key)
    prev_user: Optional[bytes] = None
    last_seq_for_key = MAX_SEQUENCE + 1
    for ikey, value in merge_iterators(streams):
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
        cutter.add(ikey, value)
    cutter.cut()
    return out


def _entries_of(blocks: Sequence[RawBlock]) -> Iterator[tuple[bytes, bytes]]:
    # chain: the merge pulls entries straight from each decoded block.
    return chain.from_iterable(
        Block(b.raw, compare=internal_compare).entries() for b in blocks
    )


def spliced_by_facts(
    stored: Sequence[StoredBlock],
    lower_bound: Optional[bytes],
    upper_bound: Optional[bytes],
    codec: Codec,
    bloom_bits_per_key: int = 10,
) -> list[bool]:
    """Which of one sub-task's blocks S4 hands on as stored from their
    index facts alone, so that S3 and S4 never decode them.

    A block ``b`` of run ``s`` qualifies when:

    * it is plain: no user key occurs twice in it, and none is a
      tombstone;
    * its trailer carries ``codec``'s own tag;
    * its ``[first, last]`` user range lies inside ``[lower, upper)``;
    * it shares no user key with a neighbour of its run;
    * its range meets no block range of another run;
    * it carries a filter piece, or ``bloom_bits_per_key`` asks for none.

    Such a block passes every test of :func:`step_splice`'s decision on
    its decoded keys — no other run holds a key in its range, so there
    is nothing to shadow or be shadowed by — and none of its keys lies
    where that decision or the merge looks for another block's: the
    output is the one decoding it would give.
    """
    facts = [block.facts for block in stored]
    out = [False] * len(stored)
    tag = COMPRESSION_TAGS[codec.name]
    firsts = [f.first_key[:-8] for f in facts]
    lasts = [f.last_key[:-8] for f in facts]
    runs: dict[int, list[int]] = {}  # source -> its blocks, key order
    for i, block in enumerate(stored):
        runs.setdefault(block.source, []).append(i)
    for source, run in runs.items():
        others = [
            ([firsts[k] for k in blocks], [lasts[k] for k in blocks])
            for other, blocks in runs.items() if other != source
        ]
        for j, i in enumerate(run):
            block, first, last = stored[i], firsts[i], lasts[i]
            if (
                not facts[i].plain
                or not facts[i].num_entries
                or block.data[-BLOCK_TRAILER_SIZE] != tag
                or (not block.filter and bloom_bits_per_key > 0)
                or (lower_bound is not None and first < lower_bound)
                or (upper_bound is not None and last >= upper_bound)
                or (j > 0 and lasts[run[j - 1]] == first)
                or (j + 1 < len(run) and firsts[run[j + 1]] == last)
            ):
                continue
            for other_firsts, other_lasts in others:
                # The other run's first block ending at or past ``first``
                # is the one that would meet the range.
                k = bisect_left(other_lasts, first)
                if k < len(other_lasts) and other_firsts[k] <= last:
                    break
            else:
                out[i] = True
    return out


def step_splice(
    stored: Sequence[StoredBlock],
    raw: Sequence[Optional[RawBlock]],
    lower_bound: Optional[bytes],
    upper_bound: Optional[bytes],
    codec: Codec,
    block_bytes: int,
    restart_interval: int = 16,
    drop_deletes: bool = False,
    smallest_snapshot: Optional[int] = None,
    bloom_bits_per_key: int = 10,
) -> list[Union[EncodedBlock, MergedBlock]]:
    """S4 for one sub-task: splice the blocks a merge would reproduce.

    ``stored`` are the sub-task's blocks after S2, run by run (newest
    first), each run's in key order, each with its index facts; ``raw``
    is S3's output, aligned with them, None for each block
    :func:`spliced_by_facts` marks.  Such a block is spliced from its
    facts, undecoded.  Every other block ``b`` of run ``s`` comes out of
    :func:`step_merge` exactly as it went in, and is handed on as stored
    — an :class:`EncodedBlock` around the very bytes S1 read, ready for
    S7 — when:

    * every key lies inside ``[lower, upper)``;
    * its trailer carries ``codec``'s own tag — not ``null`` for a
      block that did not shrink, nor a codec the table was written
      under before the option changed — so S5 would store it the same;
    * no user key occurs twice, in the block or across its edge into a
      neighbour of its run — with one version per key there is nothing
      to shadow inside the run (and a neighbour sharing a key is held
      back with it, so the merge that does see both sees all versions);
    * no tombstone that ``drop_deletes`` would drop from under every
      snapshot;
    * no newer run holds a key in ``b``'s user-key range;
    * every key an older run holds in that range is shadowed by ``b``:
      the user key is in ``b``, and ``b``'s version of it is visible to
      every snapshot, so the merge drops the older one.  (A newer run
      holds the newer versions — the LSM invariant the merge's source
      order stands for.)

    Everything else — the entries between spliced blocks, from every
    run — is merged as :func:`step_merge` would, into blocks of its own:
    a spliced block closes the builder's open block.  Returns the
    sub-task's output blocks in key order, spliced ones final — an
    input block's stored payload, ``passthrough`` where it was spliced
    from its facts (no S3–S6), ``reused`` where it was decoded first
    (no S5–S6) — and rebuilt ones as :class:`MergedBlock`, still to
    take S5 and S6.

    A spliced block keeps its input's facts and filter piece byte for
    byte, and none of its keys is hashed; only a block from an input
    written without filters gets a piece, made from the keys decoded
    here at ``bloom_bits_per_key``.
    """
    snapshot = MAX_SEQUENCE if smallest_snapshot is None else smallest_snapshot
    tag = COMPRESSION_TAGS[codec.name]
    # Each decompressed block decoded once: the decision and the merge
    # share these.
    entries = [
        None if r is None else Block(r.raw, compare=internal_compare).entries() for r in raw
    ]
    users = [None if block is None else [ikey[:-8] for ikey, _ in block] for block in entries]
    # Each block's first and last user key.
    edges = [(b.facts.first_key[:-8], b.facts.last_key[:-8]) for b in stored]
    positions: dict[int, list[int]] = {}  # source -> its blocks, key order
    for i, block in enumerate(stored):
        positions.setdefault(block.source, []).append(i)
    sources = sorted(positions)
    # Decided and merged on decoded keys alone: a block spliced from its
    # facts holds no key in another run's block range, so none that a
    # decision or a gap between splices looks for.
    decoded = {s: [i for i in positions[s] if users[i] is not None] for s in sources}
    run_users = {s: list(chain.from_iterable(users[i] for i in decoded[s])) for s in sources}

    def spliced(i: int, neighbours: Sequence[int], j: int) -> bool:
        ukeys = users[i]
        if ukeys is None:
            return True
        if not ukeys or stored[i].data[-BLOCK_TRAILER_SIZE] != tag:
            return False
        first, last = edges[i]
        if (lower_bound is not None and first < lower_bound) or (
            upper_bound is not None and last >= upper_bound
        ):
            return False
        distinct = set(ukeys)
        if (
            len(distinct) != len(ukeys)
            or (j > 0 and edges[neighbours[j - 1]][1] == first)
            or (j + 1 < len(neighbours) and edges[neighbours[j + 1]][0] == last)
        ):
            return False
        if drop_deletes and any(
            ikey[-8] == KIND_DELETE and decode_internal_key(ikey)[1] <= snapshot
            for ikey, _ in entries[i]
        ):
            return False
        source = stored[i].source
        for other in sources:
            if other == source:
                continue
            keys = run_users[other]
            lo = bisect_left(keys, first)
            hi = bisect_right(keys, last, lo)
            if lo == hi:
                continue
            if other < source or not distinct.issuperset(keys[lo:hi]):
                return False
            if smallest_snapshot is not None:
                shadowing = set(keys[lo:hi])
                if any(
                    decode_internal_key(ikey)[1] > snapshot
                    for ikey, _ in entries[i] if ikey[:-8] in shadowing
                ):
                    return False
        return True

    splices = sorted(
        (edges[i][0], i)
        for run in positions.values()
        for j, i in enumerate(run)
        if spliced(i, run, j)
    )
    run_entries = {
        s: list(chain.from_iterable(entries[i] for i in decoded[s])) for s in sources
    }
    out: list[Union[EncodedBlock, MergedBlock]] = []

    def merge_gap(after: Optional[bytes], before: Optional[bytes]) -> None:
        """Merge every run's entries with user keys in (after, before),
        ``lower``/``upper`` standing in for a missing end."""
        streams = []
        for s in sources:
            keys = run_users[s]
            if after is not None:
                lo = bisect_right(keys, after)
            elif lower_bound is not None:
                lo = bisect_left(keys, lower_bound)
            else:
                lo = 0
            end = before if before is not None else upper_bound
            hi = len(keys) if end is None else bisect_left(keys, end, lo)
            if lo < hi:
                streams.append(run_entries[s][lo:hi])
        if streams:
            out.extend(_merge(
                streams, None, None, block_bytes, restart_interval,
                drop_deletes, smallest_snapshot, bloom_bits_per_key,
            ))

    after: Optional[bytes] = None
    for first, i in splices:
        merge_gap(after, first)
        block, facts = stored[i], stored[i].facts
        out.append(
            EncodedBlock(
                stored=block.data,
                first_key=facts.first_key,
                last_key=facts.last_key,
                num_entries=facts.num_entries,
                filter=block.filter or block_filter(users[i], bloom_bits_per_key),
                plain=facts.plain,
                passthrough=users[i] is None,
                reused=users[i] is not None,
            )
        )
        after = edges[i][1]
    merge_gap(after, None)
    return out


def step_compress(
    blocks: Sequence[MergedBlock], codec: Codec
) -> list[tuple[MergedBlock, bytes, int]]:
    """S5 COMPRESS: compress each rebuilt block.

    Returns ``(merged, payload, tag)`` tuples; incompressible blocks
    fall back to the ``null`` tag (:func:`compress_block`).
    """
    return [(block, *compress_block(block.raw, codec)) for block in blocks]


def step_rechecksum(
    compressed: Sequence[tuple[MergedBlock, bytes, int]],
    checksummer: Checksummer,
) -> list[EncodedBlock]:
    """S6 RE-CHECKSUM: frame each compressed block with trailer CRC."""
    return [
        block.encoded(frame_block(payload, tag, checksummer))
        for block, payload, tag in compressed
    ]


def step_write(blocks: Sequence[EncodedBlock], sink) -> int:
    """S7 WRITE: append finished blocks to the output table sink.

    Returns the number of stored bytes written.
    """
    written = 0
    for block in blocks:
        sink.append(block)
        written += len(block.stored)
    return written
