"""The key-value store: DB facade, snapshots, manifest recovery."""

from .cursor import Cursor
from .db import DB, Snapshot, WouldBlock
from .manifest import ManifestWriter, VersionEdit, recover_version
from .verify import VerifyReport, repair_db, verify_db

__all__ = [
    "Cursor",
    "DB",
    "ManifestWriter",
    "Snapshot",
    "VerifyReport",
    "VersionEdit",
    "WouldBlock",
    "recover_version",
    "repair_db",
    "verify_db",
]
