"""Sub-task partitioning of a compaction key range (paper §III-B).

"PCP partitions the compaction key range into multiple sub-key ranges.
Each sub-key range consists of one or more data blocks."  A
:class:`SubTask` is the pipeline's unit of work: the data blocks of
every input run that overlap one sub-key range, plus the user-key
bounds ``[lower, upper)`` that make sub-tasks disjoint.

Boundaries sit on block grids: in each stretch of key space the newest
run that has keys there draws them, behind its own blocks, so those go
whole to one sub-task; blocks of the other runs that straddle a
boundary are read by both neighbouring sub-tasks and filtered by the
bounds (a small, documented I/O duplication — the price of unaligned
block grids, which the paper's LevelDB implementation pays the same
way).  Which blocks go undecoded is not the partition's concern: the
compute job decides that per block, from the index facts.  Every
sub-task reads at most twice ``subtask_bytes`` plus a block per run,
which is what makes the executor's ``window`` a bound in bytes.

Because sub-key ranges are disjoint *user-key* ranges, every version of
a user key lands in exactly one sub-task, so newest-wins deduplication
and tombstone dropping are local decisions and sub-tasks are fully
independent — the no-data-dependency property that legalises
pipelining.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..lsm.ikey import decode_internal_key
from ..lsm.table_format import BLOCK_TRAILER_SIZE, BlockHandle
from ..lsm.table_reader import Table

__all__ = [
    "InputRun",
    "SubTask",
    "SubTaskSizes",
    "distinct_input_bytes",
    "partition_subtasks",
]


@dataclass(frozen=True)
class InputRun:
    """One input table's contribution to a sub-task."""

    source: int  # merge priority (0 = newest component)
    table: Table
    handles: tuple[BlockHandle, ...]

    def stored_bytes(self) -> int:
        return sum(h.size + BLOCK_TRAILER_SIZE for h in self.handles)


@dataclass(frozen=True)
class SubTask:
    """One pipeline work unit: a sub-key range and its input blocks."""

    index: int
    lower: Optional[bytes]  # user-key bounds, [lower, upper)
    upper: Optional[bytes]
    runs: tuple[InputRun, ...]

    def input_bytes(self) -> int:
        """On-disk bytes this sub-task reads (S1 size)."""
        return sum(run.stored_bytes() for run in self.runs)

    def num_blocks(self) -> int:
        return sum(len(run.handles) for run in self.runs)


@dataclass(frozen=True)
class SubTaskSizes:
    """Aggregate shape of a partition (for reporting/experiments)."""

    count: int
    total_bytes: int
    max_bytes: int
    min_bytes: int


def distinct_input_bytes(subtasks: Iterable[SubTask]) -> int:
    """Stored bytes of the blocks ``subtasks`` read, each block once.

    A block that straddles a boundary is read by both neighbours;
    summing :meth:`SubTask.input_bytes` would count it twice.
    """
    blocks = {
        (run.source, h.offset): h.size + BLOCK_TRAILER_SIZE
        for subtask in subtasks
        for run in subtask.runs
        for h in run.handles
    }
    return sum(blocks.values())


class _Grid:
    """One table's block grid in user keys.

    Block ``b`` holds user keys in ``[starts[b], ends[b]]``.  ``ends``
    are the index keys, each block's own last key; ``starts[0]`` is the
    table's first key and ``starts[b]`` the key after ``ends[b-1]``,
    unless the block may open with *more versions of* ``ends[b-1]``
    that a merge would keep: then it is that key itself,
    so a cut right behind block ``b-1`` still hands block ``b`` to the
    sub-task that owns the key.  Versions older than the one closing
    block ``b-1`` survive a merge only if that one is invisible to some
    snapshot, which its sequence number, kept in the separator, tells.
    """

    def __init__(self, table: Table, smallest_snapshot: Optional[int]) -> None:
        self.handles = table.block_handles()
        self.sizes = [h.size + BLOCK_TRAILER_SIZE for h in self.handles]
        self.starts: list[bytes] = []
        self.ends: list[bytes] = []
        facts = table.block_facts(self.handles)
        if not facts:
            return
        separators = [f.last_key for f in facts]
        self.ends = [sep[:-8] for sep in separators]
        self.starts = [facts[0].first_key[:-8]]
        for sep, end in zip(separators, self.ends[:-1]):
            kept = (
                smallest_snapshot is not None
                and decode_internal_key(sep)[1] > smallest_snapshot
            )
            self.starts.append(end if kept else end + b"\x00")

    @property
    def smallest(self) -> bytes:
        return self.starts[0]

    @property
    def largest(self) -> bytes:
        return self.ends[-1]

    def split_by(self, cut: bytes) -> bool:
        """Does the table hold keys on both sides of ``cut``?"""
        return bool(self.ends) and self.smallest < cut <= self.largest

    def overlapping(
        self, lo: Optional[bytes], hi: Optional[bytes]
    ) -> tuple[BlockHandle, ...]:
        """Data blocks that may hold user keys in ``[lo, hi)``."""
        first = 0 if lo is None else bisect_left(self.ends, lo)
        stop = len(self.starts) if hi is None else bisect_left(self.starts, hi)
        return tuple(self.handles[first:stop])


def partition_subtasks(
    tables: Sequence[Table],
    subtask_bytes: int,
    lower: Optional[bytes] = None,
    upper: Optional[bytes] = None,
    smallest_snapshot: Optional[int] = None,
) -> list[SubTask]:
    """Split a compaction over ``tables`` into ~``subtask_bytes`` units.

    ``tables`` are ordered newest-first (upper component first).
    ``lower``/``upper`` clamp the whole compaction to a user-key window
    (None = unbounded).  ``smallest_snapshot`` is the one the merge will
    run under (None = no snapshot is live); see :class:`_Grid` for the
    one block it can add to a sub-task.

    No sub-task reads more than ``2 * subtask_bytes`` plus one block per
    run, whatever the shape of the inputs.
    """
    if subtask_bytes < 1:
        raise ValueError(f"subtask_bytes must be >= 1, got {subtask_bytes}")
    grids = [_Grid(table, smallest_snapshot) for table in tables]
    boundaries = [lower, *_choose_cuts(grids, subtask_bytes, lower, upper), upper]
    subtasks: list[SubTask] = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        runs = tuple(
            InputRun(source, table, grid.overlapping(lo, hi))
            for source, (table, grid) in enumerate(zip(tables, grids))
        )
        if any(run.handles for run in runs):
            subtasks.append(SubTask(index=len(subtasks), lower=lo, upper=hi, runs=runs))
    return subtasks


def _choose_cuts(
    grids: Sequence[_Grid],
    subtask_bytes: int,
    lower: Optional[bytes],
    upper: Optional[bytes],
) -> list[bytes]:
    """Cut points, ascending: each the key right behind some block.

    Walk every run's blocks in key order, adding up their bytes, and
    cut behind a block once the sum reaches ``subtask_bytes`` — if that
    block's run *draws* there: no newer run is split by the cut, so in
    each stretch of key space the newest run present is cut on its own
    grid and its blocks go whole to one sub-task.  A run does not draw
    behind its last block while another run continues past it; that
    run's next separator, just ahead, keeps its blocks whole instead.
    Where the drawing run's blocks are so sparse that the sum doubles
    with no cut of theirs in reach, any run's grid will do: the size
    bound outranks a whole block.
    """
    block_ends = sorted(
        (end + b"\x00", source, size, b == len(grid.ends) - 1)
        for source, grid in enumerate(grids)
        for b, (end, size) in enumerate(zip(grid.ends, grid.sizes))
    )
    cuts: list[bytes] = []
    acc = 0
    for cut, source, size, closes_run in block_ends:
        if lower is not None and cut <= lower:
            continue  # the block lies below the window
        acc += size
        if cut == block_ends[-1][0] or (upper is not None and cut >= upper):
            break  # nothing in the window lies behind this cut
        if cuts and cut == cuts[-1]:
            continue
        draws = acc >= subtask_bytes and not any(
            other.split_by(cut)
            for other in (grids if closes_run else grids[:source])
        )
        if draws or acc >= 2 * subtask_bytes:
            cuts.append(cut)
            acc = 0
    return cuts

