"""Classic leveling (the seed engine's only policy, bit-compatible).

LevelDB policy, simplified but faithful where the paper depends on it:

* L0 compacts into L1 when it accumulates ``l0_compaction_trigger``
  files (all overlapping L0 files join the compaction).
* Level i >= 1 compacts into i+1 when its byte size exceeds the
  exponential threshold; one input file is chosen round-robin by key
  (the ``compact_pointer``) so compactions sweep the key space, with
  the files after it that continue its last user key, plus every i+1
  file whose range overlaps.

The picked :class:`CompactionTask` is exactly the paper's unit of work:
"the key-value pairs in a specific key range from the corresponding
SSTables in C_i and C_{i+1} are merged into multiple size-limited
SSTables in C_{i+1}".

Every level holds exactly one sorted run (run id 0), so manifests
written by this policy are byte-identical with pre-policy stores.
"""

from __future__ import annotations

from typing import Optional

from ..lsm.options import Options
from ..lsm.version import FileMetaData, Version
from .policy import CompactionPolicy, CompactionTask, register_policy

__all__ = ["LeveledPolicy"]


@register_policy
class LeveledPolicy(CompactionPolicy):
    """One sorted run per level; merge-with-overlap on byte pressure."""

    name = "leveled"

    def __init__(self, options: Options) -> None:
        super().__init__(options)
        # Per-level key cursor for round-robin file selection.
        self.compact_pointer: dict[int, bytes] = {}

    def compaction_score(self, version: Version) -> tuple[float, int]:
        best_score = version.num_files(0) / self.options.l0_compaction_trigger
        best_level = 0
        for level in range(1, self.options.num_levels - 1):
            score = version.level_bytes(level) / self.options.max_bytes_for_level(
                level
            )
            if score > best_score:
                best_score, best_level = score, level
        return best_score, best_level

    def pick(self, version: Version) -> Optional[CompactionTask]:
        score, level = self.compaction_score(version)
        if score < 1.0:
            return None
        if level == 0:
            return self._pick_l0(version)
        return self._pick_level(version, level)

    def _pick_l0(self, version: Version) -> Optional[CompactionTask]:
        l0 = list(version.files[0])
        if not l0:
            return None
        # Start from the oldest L0 file and pull in every L0 file whose
        # range overlaps transitively (they must compact together to
        # preserve newest-wins ordering).
        chosen = [l0[0]]
        changed = True
        while changed:
            changed = False
            lo = min(f.smallest[:-8] for f in chosen)
            hi = max(f.largest[:-8] for f in chosen)
            for meta in l0:
                if meta not in chosen and meta.overlaps(lo, hi):
                    chosen.append(meta)
                    changed = True
        chosen.sort(key=lambda m: m.number)
        lo = min(f.smallest[:-8] for f in chosen)
        hi = max(f.largest[:-8] for f in chosen)
        lower = version.overlapping_files(1, lo, hi)
        return CompactionTask(0, chosen, lower)

    def _pick_level(self, version: Version, level: int) -> Optional[CompactionTask]:
        files = version.files[level]
        if not files:
            return None
        pointer = self.compact_pointer.get(level)
        pick = None
        if pointer is not None:
            for meta in files:
                if meta.largest[:-8] > pointer:
                    pick = meta
                    break
        if pick is None:
            pick = files[0]  # wrap around
        task = self._push_down(version, level, pick)
        self.compact_pointer[level] = task.inputs_upper[-1].largest[:-8]
        return task

    @staticmethod
    def _push_down(version: Version, level: int, pick: FileMetaData) -> CompactionTask:
        """``pick`` and the files after it that continue its last user
        key, with the next level's files overlapping them.

        Snapshots keep a key's versions, and a compaction may cut them
        across two files, the newer ones first: pushed down alone, the
        first would leave older versions above newer ones (LevelDB's
        ``AddBoundaryInputs``).
        """
        files = version.files[level]
        upper = [pick]
        for meta in files[files.index(pick) + 1 :]:
            if meta.smallest[:-8] != upper[-1].largest[:-8]:
                break
            upper.append(meta)
        lower = version.overlapping_files(
            level + 1, pick.smallest[:-8], upper[-1].largest[:-8]
        )
        return CompactionTask(level, upper, lower)

    def pick_for_range(
        self,
        version: Version,
        level: int,
        smallest_user: Optional[bytes],
        largest_user: Optional[bytes],
    ) -> Optional[CompactionTask]:
        if level >= self.options.num_levels - 1:
            return None
        files = version.overlapping_files(level, smallest_user, largest_user)
        if not files:
            return None
        if level == 0:
            return self._pick_l0(version)
        return self._push_down(version, level, files[0])
