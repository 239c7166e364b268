"""Size-tiered compaction: stacked runs, whole-tier merges.

Every memtable flush is one sorted run at L0; when a level accumulates
``runs`` sorted runs, *all* of them merge into a single fresh run one
level down (no overlapping-file rewrite at the target — that is the
whole point: each key is rewritten once per level, so write
amplification is O(depth) instead of O(depth × fanout)).  The last
level merges its runs in place once it hits the trigger, bounding
space amplification.

This is the "tiering" corner of Sarkar et al.'s design space: trigger
= run count, layout = multiple runs per level, granularity = whole
level, data movement = none at the target.
"""

from __future__ import annotations

from typing import Optional

from ..lsm.options import Options
from ..lsm.version import Version
from .policy import CompactionPolicy, CompactionTask, register_policy

__all__ = ["TieredPolicy"]


@register_policy
class TieredPolicy(CompactionPolicy):
    """Merge a whole level into one fresh run below at ``runs`` runs."""

    name = "tiered"

    def __init__(self, options: Options, runs: Optional[int] = None) -> None:
        super().__init__(options)
        self.runs_per_level = (
            runs if runs is not None else options.l0_compaction_trigger
        )
        if self.runs_per_level < 2:
            raise ValueError("tiered policy needs runs >= 2")
        if self.runs_per_level > options.l0_stop_writes_trigger:
            raise ValueError(
                f"tiered runs trigger ({self.runs_per_level}) above "
                f"l0_stop_writes_trigger ({options.l0_stop_writes_trigger}): "
                "writes would stall before a merge is ever due"
            )

    @classmethod
    def from_params(
        cls, options: Options, params: dict[str, str]
    ) -> "TieredPolicy":
        params = dict(params)
        runs = params.pop("runs", None)
        if params:
            raise ValueError(
                f"policy '{cls.name}' got unknown parameters "
                f"{sorted(params)}; supported: runs"
            )
        return cls(options, runs=int(runs) if runs is not None else None)

    def spec(self) -> str:
        return f"{self.name}:runs={self.runs_per_level}"

    # ------------------------------------------------------------ knobs
    def _tiered_levels(self) -> int:
        """How many levels, from L0 down, merge on run count: all."""
        return self.options.num_levels

    def compaction_score(self, version: Version) -> tuple[float, int]:
        best_score = version.num_runs(0) / self.runs_per_level
        best_level = 0
        for level in range(1, self._tiered_levels()):
            score = version.num_runs(level) / self.runs_per_level
            if score > best_score:
                best_score, best_level = score, level
        return best_score, best_level

    def pick(self, version: Version) -> Optional[CompactionTask]:
        score, level = self.compaction_score(version)
        if score < 1.0:
            return None
        return self._merge_level(version, level)

    def _merge_level(
        self, version: Version, level: int
    ) -> Optional[CompactionTask]:
        """Merge every run at ``level`` into one run.

        Intermediate levels push the merged run one level down as a
        fresh run id (no target-level inputs); the last level collapses
        its runs in place into run 0.
        """
        files = list(version.files[level])
        if not files:
            return None
        if level >= self.options.num_levels - 1:
            if version.num_runs(level) <= 1:
                return None
            return CompactionTask(
                level, files, [], output_level=level, output_run=0
            )
        out_run = version.max_run_id(level + 1) + 1
        return CompactionTask(
            level, files, [], output_level=level + 1, output_run=out_run
        )

    def pick_for_range(
        self,
        version: Version,
        level: int,
        smallest_user: Optional[bytes],
        largest_user: Optional[bytes],
    ) -> Optional[CompactionTask]:
        # Runs merge wholesale: any overlap with the range pulls the
        # whole level (a superset of what was asked — correct, just
        # more thorough).
        if not version.overlapping_files(level, smallest_user, largest_user):
            return None
        return self._merge_level(version, level)
