"""Lazy leveling: tiering above, leveling on the last level.

Sarkar et al.'s hybrid: intermediate levels stack runs and merge them
wholesale (tiered — cheap writes while data is still hot and will be
rewritten anyway), but the last level keeps exactly one sorted run
(leveled — bounded space amplification and fast reads where most of
the data lives).  Merges out of the second-to-last level are classic
leveled merges: they rewrite the overlapping slice of the last level's
single run.
"""

from __future__ import annotations

from typing import Optional

from ..lsm.version import Version
from .policy import CompactionTask, register_policy
from .tiered import TieredPolicy

__all__ = ["LazyLeveledPolicy"]


@register_policy
class LazyLeveledPolicy(TieredPolicy):
    """Tiered runs on levels 0..N-2, one leveled run on level N-1."""

    name = "lazy-leveled"

    def _tiered_levels(self) -> int:
        # The leveled sink has nothing deeper to merge into.
        return self.options.num_levels - 1

    def _merge_level(
        self, version: Version, level: int
    ) -> Optional[CompactionTask]:
        last = self.options.num_levels - 1
        if level < last - 1:
            return super()._merge_level(version, level)
        files = list(version.files[level])
        if level >= last or not files:
            return None  # the sink is leveled; nothing below it
        # Leveled merge into the sink: rewrite the overlapping slice of
        # its single run, outputs land as run 0.
        lo = min(f.smallest[:-8] for f in files)
        hi = max(f.largest[:-8] for f in files)
        lower = version.overlapping_files(last, lo, hi)
        return CompactionTask(
            level, files, lower, output_level=last, output_run=0
        )
