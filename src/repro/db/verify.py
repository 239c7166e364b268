"""Offline integrity checking and repair.

``verify_db`` walks a database directory and checks everything the
engine relies on: CURRENT/MANIFEST consistency, per-table footer and
block checksums, intra-table key ordering, each block's index facts
(first key, entry count, plain bit — compaction splices on them without
decoding the block), level-invariant (non-overlap) violations, and
orphaned files.  ``repair_db`` rebuilds a
usable database from whatever valid SSTables survive — the LevelDB
``RepairDB`` strategy: scan ``*.sst``, salvage every table whose blocks
verify, and register them all at level 0 in a fresh MANIFEST (L0 may
overlap, so that placement is always legal; the next compactions
re-sort the tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..devices.vfs import Storage
from ..lsm.ikey import internal_compare
from ..lsm.options import Options
from ..lsm.table_format import UnsupportedTableFormat, facts_of_entries
from ..lsm.table_reader import Table
from ..lsm.version import FileMetaData, Version, sstable_name, sstable_number
from .manifest import (
    ManifestWriter,
    VersionEdit,
    read_current,
    recover_version,
    set_current,
)

__all__ = ["VerifyReport", "verify_db", "repair_db"]


@dataclass
class VerifyReport:
    """Outcome of :func:`verify_db`."""

    ok: bool = True
    tables_checked: int = 0
    entries_checked: int = 0
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def error(self, message: str) -> None:
        self.ok = False
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def render(self) -> str:
        lines = [
            f"verify: {'OK' if self.ok else 'CORRUPT'} "
            f"({self.tables_checked} tables, {self.entries_checked} entries)"
        ]
        lines += [f"  ERROR: {e}" for e in self.errors]
        lines += [f"  warn:  {w}" for w in self.warnings]
        return "\n".join(lines)


def verify_db(storage: Storage, options: Optional[Options] = None) -> VerifyReport:
    """Check a (closed) database directory end to end."""
    options = options or Options()
    report = VerifyReport()

    manifest_name = read_current(storage)
    if manifest_name is None:
        report.error("no CURRENT file (not a database directory?)")
        return report
    if not storage.exists(manifest_name):
        report.error(f"CURRENT points at missing manifest {manifest_name!r}")
        return report

    try:
        version, _next, _seq, _log, _ = recover_version(storage, options)
    except Exception as exc:
        report.error(f"manifest replay failed: {exc}")
        return report

    # Level invariants.
    try:
        version.check_invariants()
    except AssertionError as exc:
        report.error(f"level invariant violated: {exc}")

    registered = set()
    for level, meta in version.all_files():
        registered.add(meta.name)
        if not storage.exists(meta.name):
            report.error(f"L{level} file {meta.name} missing from storage")
            continue
        try:
            table = Table(storage.open(meta.name), options)
        except Exception as exc:
            report.error(f"{meta.name}: unreadable table: {exc}")
            continue
        report.tables_checked += 1
        first = prev = None
        count = 0
        handles = table.block_handles()
        try:
            for handle, facts in zip(handles, table.block_facts(handles)):
                entries = table.block_entries(handle)
                if not entries or facts != facts_of_entries(entries):
                    report.error(
                        f"{meta.name}: index facts of the block at offset "
                        f"{handle.offset} do not match its entries"
                    )
                ordered = True
                for ikey, _value in entries:
                    if prev is not None and internal_compare(prev, ikey) >= 0:
                        ordered = False
                        break
                    prev = ikey
                    count += 1
                if not ordered:
                    report.error(f"{meta.name}: keys out of order")
                    break
                if first is None and entries:
                    first = entries[0][0]
        except Exception as exc:
            report.error(f"{meta.name}: block corruption: {exc}")
            continue
        report.entries_checked += count
        if count != table.num_entries:
            report.error(
                f"{meta.name}: footer says {table.num_entries} entries, "
                f"read {count}"
            )
        if first is not None and first != meta.smallest:
            report.error(f"{meta.name}: smallest key mismatch vs manifest")

    # Orphans (not fatal: crash between write and manifest commit).
    for name in storage.list():
        if name.endswith(".sst") and name not in registered:
            report.warn(f"orphaned table file {name}")
        elif name.endswith(".quarantined"):
            report.warn(f"quarantined table file {name}")
        elif name.endswith(".tmp"):
            report.warn(f"orphaned temp file {name}")
    return report


def _table_verifies(storage: Storage, name: str, options: Options) -> bool:
    """True when every block of ``name`` reads back clean."""
    try:
        table = Table(storage.open(name), options)
        for _entry in table:
            pass
    except Exception:
        return False
    return True


def _numbered(name: str) -> bool:
    """Is ``name`` what a MANIFEST entry's number opens?"""
    return sstable_name(sstable_number(name)) == name


def repair_db(storage: Storage, options: Optional[Options] = None) -> dict:
    """Rebuild CURRENT/MANIFEST from salvageable SSTables.

    Returns ``{"salvaged": [...], "dropped": [...]}``.  Existing
    manifest state is ignored entirely; every readable, fully-verifying
    ``*.sst`` is re-registered at level 0.  Quarantined tables
    (``*.sst.quarantined``, renamed aside by the self-healing
    compaction path) get a second chance: one that now verifies
    cleanly is renamed back and salvaged; one that does not stays
    aside and is listed in ``dropped``.  A table salvaged under a name
    that is not a table number's is renamed to a fresh number and listed
    under that name.  A table of another layout is not dropped: repair
    stops with :class:`UnsupportedTableFormat` before it writes a manifest.
    """
    options = options or Options()
    salvaged: list[str] = []
    dropped: list[str] = []
    version = Version(options)
    max_number = 0
    max_seq = 0

    # Carry the store's compaction-policy spec into the rebuilt
    # manifest (best effort: the old manifest may be the casualty) so
    # a repaired tiered store does not come back claiming to be
    # leveled and then refuse a policy-pinned reopen.
    policy_spec: Optional[str] = None
    try:
        old_version, _n, _s, _l, _m = recover_version(storage, options)
        policy_spec = old_version.policy_spec
    except Exception:
        pass

    # Quarantine replay: re-admit any renamed-aside table that proves
    # readable end to end (the damage may have been in lost cache
    # state or a since-replaced medium).
    for name in list(storage.list()):
        if not name.endswith(".sst.quarantined"):
            continue
        original = name[: -len(".quarantined")]
        if not storage.exists(original) and _table_verifies(
            storage, name, options
        ):
            storage.rename(name, original)
        else:
            dropped.append(name)

    tables = sorted(name for name in storage.list() if name.endswith(".sst"))
    fresh = 1 + max(
        (sstable_number(name) for name in tables if _numbered(name)), default=0
    )
    for name in tables:
        try:
            table = Table(storage.open(name), options)
            entries = list(table)  # verifies every block checksum
            table.close()
            if not entries:
                dropped.append(name)
                continue
            smallest = entries[0][0]
            largest = entries[-1][0]
            from ..lsm.ikey import decode_internal_key

            max_seq = max(
                max_seq,
                max(decode_internal_key(k)[1] for k, _ in entries),
            )
        except UnsupportedTableFormat as exc:
            raise UnsupportedTableFormat(f"{name}: {exc}") from None
        except Exception:
            dropped.append(name)
            continue
        if not _numbered(name):
            # The MANIFEST records a table by number only, and a reopen
            # looks it up as sstable_name(number): under any other name
            # (``backup.sst``, ``12.sst``) it would be gone at the next
            # open.  It takes a fresh number above every numbered table.
            while storage.exists(sstable_name(fresh)):
                fresh += 1
            storage.rename(name, sstable_name(fresh))
            name = sstable_name(fresh)
        number = sstable_number(name)
        max_number = max(max_number, number)
        version.add_file(
            0,
            FileMetaData(
                number=number,
                file_size=storage.file_size(name),
                smallest=smallest,
                largest=largest,
                file_name=name,
            ),
        )
        salvaged.append(name)

    manifest_name = f"MANIFEST-{max_number + 1:06d}"
    writer = ManifestWriter(storage, manifest_name)
    edit = VersionEdit(
        log_number=None,
        next_file_number=max_number + 2,
        last_sequence=max_seq,
        policy_spec=policy_spec,
    )
    for level, meta in version.all_files():
        edit.add_file(level, meta)
    writer.append(edit, sync=True)
    writer.close()
    set_current(storage, manifest_name)
    return {"salvaged": sorted(salvaged), "dropped": sorted(dropped)}
