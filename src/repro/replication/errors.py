"""Typed failures of the replication subsystem."""

from __future__ import annotations

__all__ = [
    "ReplicationError",
    "FencedError",
]


class ReplicationError(RuntimeError):
    """Base class for replication failures."""


class FencedError(ReplicationError):
    """The peer's fencing epoch is newer than ours.

    Raised on the primary when a subscriber presents a higher epoch —
    the subscriber was promoted, this node must not keep acting as a
    primary for it.
    """
