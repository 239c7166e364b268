"""Level metadata: which SSTables live where.

A :class:`Version` is the immutable-ish snapshot of the tree shape —
per level, the list of :class:`FileMetaData` in key order.  Level 0
files may overlap (each is a dumped memtable); levels >= 1 hold
disjoint key ranges *within a sorted run*, the invariant that makes
the paper's sub-task partitioning legal ("the key ranges of different
data blocks in the same component do not overlap, there is no data
dependency among them").

Leveled stores keep exactly one run per level (run id 0), which is the
classic LevelDB shape.  Tiered / lazy-leveled policies (Sarkar et al.,
PAPERS.md) stack multiple sorted runs on one level; runs are ordered
by run id, and a higher run id strictly shadows lower ones per key
(runs are installed in sequence-number order, exactly like L0 files).
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .ikey import MAX_SEQUENCE, internal_compare, internal_order, lookup_key
from .options import Options

__all__ = ["FileMetaData", "Version"]


@dataclass
class FileMetaData:
    """One SSTable's bookkeeping entry."""

    number: int
    file_size: int
    smallest: bytes  # internal keys
    largest: bytes
    file_name: Optional[str] = None  # defaults to the standard pattern
    #: Sorted-run id within the level.  Leveled levels use run 0 only;
    #: tiered levels stack runs, newer run ids shadow older ones.
    run: int = 0

    @property
    def name(self) -> str:
        return self.file_name if self.file_name is not None else sstable_name(
            self.number
        )

    def overlaps(self, smallest_user: Optional[bytes], largest_user: Optional[bytes]) -> bool:
        """Does this file's user-key range intersect [smallest, largest]?

        ``None`` bounds are infinite.
        """
        file_small = self.smallest[:-8]
        file_large = self.largest[:-8]
        if largest_user is not None and file_small > largest_user:
            return False
        if smallest_user is not None and file_large < smallest_user:
            return False
        return True


def sstable_name(number: int) -> str:
    return f"{number:06d}.sst"


def sstable_number(name: str) -> int:
    """The number in names like ``000123.sst``; for any other name one
    derived from it that every process agrees on (``hash()`` is salted
    per interpreter, and the number goes into the MANIFEST)."""
    stem = name.split("/")[-1].split(".")[0]
    try:
        return int(stem)
    except ValueError:
        return zlib.crc32(name.encode()) % (1 << 31)


#: A sorted run as GET and scans seek it: ``(level, smallest, largest,
#: files)``, the files in key order and the ``internal_order`` of each
#: one's smallest and largest key.
Run = tuple[int, list[tuple[bytes, int]], list[tuple[bytes, int]], list[FileMetaData]]


class Version:
    """Tree shape: files per level plus invariant checking."""

    def __init__(self, options: Options) -> None:
        self.options = options
        self.files: list[list[FileMetaData]] = [
            [] for _ in range(options.num_levels)
        ]
        #: Replication fencing epoch (bumped by ``dbtool promote``);
        #: persisted via the manifest's REPL_EPOCH edit tag.
        self.repl_epoch = 0
        #: Canonical compaction-policy spec this store was created
        #: with (persisted via the manifest's POLICY edit tag); None
        #: on legacy manifests, which means classic leveled.
        self.policy_spec: Optional[str] = None
        # The search plan, built on first use and dropped by every
        # mutation (both go through add_file / remove_file).
        self._plan: Optional[tuple[list[Run], list[Run]]] = None

    # -- mutation (the DB applies edits under its own lock) ----------
    def add_file(self, level: int, meta: FileMetaData) -> None:
        if not 0 <= level < self.options.num_levels:
            raise ValueError(f"level {level} out of range")
        lst = self.files[level]
        if level == 0:
            lst.append(meta)  # L0 kept in arrival order (newest last)
        else:
            # Insert preserving (run, key) order; overlap within a run
            # is an invariant error.
            idx = 0
            while idx < len(lst) and (
                lst[idx].run < meta.run
                or (
                    lst[idx].run == meta.run
                    and internal_compare(lst[idx].smallest, meta.smallest) < 0
                )
            ):
                idx += 1
            lst.insert(idx, meta)
        self._plan = None

    def remove_file(self, level: int, number: int) -> FileMetaData:
        lst = self.files[level]
        for i, meta in enumerate(lst):
            if meta.number == number:
                del lst[i]
                self._plan = None
                return meta
        raise KeyError(f"file {number} not at level {level}")

    # -- queries ------------------------------------------------------
    def num_files(self, level: int) -> int:
        return len(self.files[level])

    def runs(self, level: int) -> list[tuple[int, list[FileMetaData]]]:
        """Sorted runs at ``level`` as ``(run_id, files)``, oldest run
        first.  L0 treats every file as its own run (arrival order)."""
        if level == 0:
            return [(m.number, [m]) for m in self.files[0]]
        out: list[tuple[int, list[FileMetaData]]] = []
        for meta in self.files[level]:  # already (run, key) sorted
            if out and out[-1][0] == meta.run:
                out[-1][1].append(meta)
            else:
                out.append((meta.run, [meta]))
        return out

    def num_runs(self, level: int) -> int:
        if level == 0:
            return len(self.files[0])
        return len({meta.run for meta in self.files[level]})

    def max_run_id(self, level: int) -> int:
        """Largest run id in use at ``level`` (-1 when empty)."""
        lst = self.files[level]
        return lst[-1].run if lst else -1

    def level_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.files[level])

    def total_bytes(self) -> int:
        return sum(self.level_bytes(lv) for lv in range(self.options.num_levels))

    def all_files(self) -> list[tuple[int, FileMetaData]]:
        return [
            (level, meta)
            for level in range(self.options.num_levels)
            for meta in self.files[level]
        ]

    def files_for_get(
        self, user_key: bytes, order: Optional[tuple[bytes, int]] = None
    ) -> list[tuple[int, FileMetaData]]:
        """Files that may hold ``user_key``, newest-first search order.

        ``order`` is the GET's probe, ``internal_order(lookup_key(user_key,
        snapshot))``; None probes for the newest version.  L0 newest to
        oldest (every file whose range holds the probe), then per deeper
        level at most one file per sorted run, newest run first (newer
        runs shadow older ones, same argument as L0 files): the first
        file whose largest key is at or past the probe, as LevelDB's
        ``Version::Get`` picks it, so a key whose versions span two
        files of a run is read from the one holding those the probe sees.
        """
        if order is None:
            order = internal_order(lookup_key(user_key, MAX_SEQUENCE))
        l0, runs = self._plan or self.search_plan()
        out = [
            (0, files[0])
            for _, smallest, largest, files in l0
            if smallest[0][0] <= user_key and order <= largest[0]
        ]
        for level, smallest, largest, files in runs:
            i = bisect_left(largest, order)
            if i < len(files) and smallest[i][0] <= user_key:
                out.append((level, files[i]))
        return out

    def search_plan(self) -> tuple[list[Run], list[Run]]:
        """The sorted runs, newest first, built once per shape of the
        tree: L0's (one per file), then the deeper levels'."""
        if self._plan is None:
            plan = [
                (
                    level,
                    [internal_order(m.smallest) for m in files],
                    [internal_order(m.largest) for m in files],
                    files,
                )
                for level in range(self.options.num_levels)
                for _run_id, files in reversed(self.runs(level))
            ]
            l0 = len(self.files[0])
            self._plan = (plan[:l0], plan[l0:])
        return self._plan

    def overlapping_files(
        self,
        level: int,
        smallest_user: Optional[bytes],
        largest_user: Optional[bytes],
    ) -> list[FileMetaData]:
        """Files at ``level`` intersecting a user-key range."""
        return [
            meta
            for meta in self.files[level]
            if meta.overlaps(smallest_user, largest_user)
        ]

    def check_invariants(self) -> None:
        """Raise AssertionError if level ordering invariants are broken.

        Within each sorted run at levels >= 1, files must be key-sorted
        and disjoint.  Distinct runs on the same level may overlap
        freely (that is what tiering is).
        """
        for level in range(1, self.options.num_levels):
            lst = self.files[level]
            for a, b in zip(lst, lst[1:]):
                assert a.run <= b.run, (
                    f"level {level}: run order broken at {a.number}/{b.number}"
                )
                if a.run != b.run:
                    continue
                assert internal_compare(a.largest, b.smallest) < 0, (
                    f"level {level} run {a.run}: "
                    f"{a.number} overlaps {b.number}"
                )

    def describe(self) -> str:
        """Human-readable tree shape (for logs and debugging)."""
        lines = []
        for level in range(self.options.num_levels):
            if self.files[level]:
                sizes = ", ".join(
                    f"#{m.number}:{m.file_size // 1024}K" for m in self.files[level]
                )
                runs = self.num_runs(level)
                lines.append(
                    f"L{level}({len(self.files[level])} files, "
                    f"{runs} run{'s' if runs != 1 else ''}): {sizes}"
                )
        return "\n".join(lines) or "(empty)"
