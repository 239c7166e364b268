"""Engine configuration.

Defaults follow the paper's §IV-A experimental setup: 4 MB memtable,
2 MB SSTables, 4 KB data blocks, snappy-class (``lz77``) compression.
Level size thresholds grow exponentially (``level_multiplier``), which
is what makes deeper trees as the working set grows and reproduces the
Fig 10 throughput decline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Options"]


@dataclass
class Options:
    """Tunable parameters of the LSM engine."""

    memtable_bytes: int = 4 * 1024 * 1024
    sstable_bytes: int = 2 * 1024 * 1024
    block_bytes: int = 4 * 1024
    block_restart_interval: int = 16
    # The codec every compaction writes its outputs with.  L0 tables,
    # which only the memtable flush writes, carry the codec that
    # level_compression(0) derives from it instead.
    compression: str = "lz77"
    checksum: str = "crc32"
    num_levels: int = 7
    # L0 flush files accumulate until this count triggers an L0->L1
    # compaction; deeper levels compact on byte thresholds.  Under
    # tiered / lazy-leveled policies both triggers count sorted *runs*
    # rather than files (at L0 every file is one run, so the leveled
    # reading is the same thing); see docs/COMPACTION.md.
    l0_compaction_trigger: int = 4
    l0_stop_writes_trigger: int = 12
    # Compaction-policy spec string ("leveled", "tiered:runs=4",
    # "lazy-leveled:runs=4", ...).  None adopts whatever policy the
    # store's manifest records (legacy manifests mean "leveled"); a
    # non-None spec that disagrees with the manifest raises
    # PolicyMismatchError on open.
    compaction_policy: Optional[str] = None
    level1_bytes: int = 10 * 1024 * 1024
    level_multiplier: int = 10
    bloom_bits_per_key: int = 10
    block_cache_entries: int = 1024
    # WAL group size: the engine syncs the log every `wal_sync_interval`
    # batches (0 = never sync; 1 = sync each batch).
    wal_sync_interval: int = 0
    # Replication log shipping: retain up to this many bytes of retired
    # WAL files after flush (0 = delete retired WALs immediately, the
    # classic behaviour) so a lagging follower can replay from them
    # instead of taking a full snapshot.
    wal_retain_bytes: int = 0
    paranoid_checks: bool = True
    # Transient-I/O handling: a compaction hit by a retryable error
    # (repro.devices.faults.TransientIOError) is re-run up to
    # `compaction_retries` times with exponential backoff starting at
    # `compaction_retry_backoff_s`; a *corrupt* input is never retried
    # — it gets quarantined instead (see docs/RECOVERY.md).
    compaction_retries: int = 3
    compaction_retry_backoff_s: float = 0.01

    def max_bytes_for_level(self, level: int) -> float:
        """Size threshold of ``level`` (level 0 is count-triggered)."""
        if level < 1:
            raise ValueError(f"levels >= 1 have byte thresholds, got {level}")
        return self.level1_bytes * (self.level_multiplier ** (level - 1))

    def level_compression(self, level: int) -> str:
        """The codec of the tables written into ``level``.

        Compactions write ``compression`` at every level they fill.  L0
        is written by the memtable flush alone, which a PUT may wait
        behind under the DB mutex, so it uses the stdlib's C ``zlib``
        (about 30x faster than ``lz77`` on a 4 KB block, and no larger);
        ``null`` stays ``null``.  A file keeps its level's codec: it
        leaves L0 through a merge, which re-encodes it, unless the two
        codecs agree (RocksDB's per-level compression, with
        ``Compaction::IsTrivialMove``'s matching-codec check).
        """
        if level == 0 and self.compression != "null":
            return "zlib"
        return self.compression

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.memtable_bytes < 1024:
            raise ValueError("memtable_bytes too small")
        if self.block_bytes < 64:
            raise ValueError("block_bytes too small")
        if self.sstable_bytes < self.block_bytes:
            raise ValueError("sstable_bytes must be >= block_bytes")
        if self.block_restart_interval < 1:
            raise ValueError("block_restart_interval must be >= 1")
        if self.num_levels < 2:
            raise ValueError("need at least 2 levels")
        if self.level_multiplier < 2:
            raise ValueError("level_multiplier must be >= 2")
        if not 0 <= self.bloom_bits_per_key <= 64:
            raise ValueError("bloom_bits_per_key out of range")
        if self.l0_stop_writes_trigger < self.l0_compaction_trigger:
            raise ValueError("l0 stop trigger below compaction trigger")
        if self.compaction_retries < 0:
            raise ValueError("compaction_retries must be >= 0")
        if self.compaction_retry_backoff_s < 0:
            raise ValueError("compaction_retry_backoff_s must be >= 0")
        if self.wal_retain_bytes < 0:
            raise ValueError("wal_retain_bytes must be >= 0")
