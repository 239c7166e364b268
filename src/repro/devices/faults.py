"""Deterministic fault injection for :class:`repro.devices.vfs.Storage`.

The paper's S2/S6 checksum stages exist to catch storage corruption in
the middle of a compaction; this module supplies the *other half* of
that robustness story — a way to deterministically create the damage
and the power cuts those stages (and the WAL/MANIFEST commit protocol)
must survive.

:class:`FaultyStorage` wraps any inner :class:`Storage` and is driven
by a declarative, seed-deterministic :class:`FaultPlan`:

* probabilistic or nth-op ``EIO`` (:class:`TransientIOError`) on
  read / write / sync / rename;
* seeded single-bit flips on read (silent corruption the checksum
  stages must catch);
* named **crash points** — the engine calls
  :func:`fire_crash_point` at protocol boundaries (WAL append/sync,
  flush install, compaction install, manifest commit, CURRENT swap);
  when the plan arms that point the storage raises
  :class:`SimulatedCrash` and freezes.

Durability is modelled explicitly: appends become durable only at
``sync()``.  After a crash, :meth:`FaultyStorage.frozen_storage`
returns a fresh :class:`MemStorage` holding exactly the synced image
(unsynced appends dropped, or — with ``torn_tail`` — torn to a seeded
prefix), so a test can "power-cut" a live DB and reopen from the disk
state a real machine would have rebooted to.

Everything is deterministic given ``FaultPlan.seed``: the same plan
over the same operation sequence injects the same faults and freezes
the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

from .vfs import (
    MemStorage,
    ReadableFile,
    Storage,
    StorageError,
    StorageWrapper,
    WritableFile,
)

__all__ = [
    "TransientIOError",
    "SimulatedCrash",
    "FaultPlan",
    "FaultyStorage",
    "CRASH_POINTS",
    "fire_crash_point",
    "find_faulty",
    "corrupt_file",
]


class TransientIOError(StorageError):
    """A retryable I/O failure (the injected-``EIO`` class).

    The write path treats this as *transient*: bounded retries with
    backoff are appropriate.  Contrast with
    :class:`repro.lsm.TableCorruption` / ``LogCorruption``, which are
    permanent data damage and must never be retried blindly.
    """


class SimulatedCrash(BaseException):
    """Raised at an armed crash point: the process "loses power".

    Deliberately a ``BaseException`` so that generic ``except
    Exception`` recovery code cannot accidentally swallow the power
    cut — exactly like ``KeyboardInterrupt``.
    """


#: Canonical crash-point names the engine fires (see repro.db.db and
#: repro.db.manifest).  The crash-consistency harness iterates this
#: list; every entry must reopen with zero acknowledged-write loss.
CRASH_POINTS = (
    "wal.append",              # before the WAL record is appended
    "wal.sync",                # after append, before the durability barrier
    "wal.synced",              # record durable, db.mutex not yet re-taken
    "flush.table_written",     # L0 table synced, manifest not yet updated
    "flush.installed",         # manifest edit durable, old WAL not deleted
    "compaction.outputs_written",  # outputs synced, version edit not applied
    "compaction.installed",    # version edit durable, inputs not deleted
    "manifest.append",         # before a version edit reaches the MANIFEST
    "current.tmp_written",     # CURRENT.tmp synced, not yet renamed
    "current.renamed",         # CURRENT atomically swapped
)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject.

    All randomness derives from ``seed``; two storages driven by the
    same plan over the same operation sequence fail identically.

    ``fail_nth`` maps an op kind (``read``/``write``/``sync``/
    ``rename``) to a 1-based op index that raises exactly once —
    deterministic aiming for "the Nth write of this run fails".
    ``max_errors`` bounds the total injected errors (so bounded
    retries eventually succeed); ``None`` means unbounded.
    ``crash_at`` names a crash point; ``crash_skip`` skips its first N
    hits.  ``torn_tail`` keeps a seeded prefix of the unsynced bytes
    at crash time instead of dropping them all (a torn write).
    """

    seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    sync_error_rate: float = 0.0
    rename_error_rate: float = 0.0
    bitflip_rate: float = 0.0
    fail_nth: dict = field(default_factory=dict)
    max_errors: Optional[int] = None
    crash_at: Optional[str] = None
    crash_skip: int = 0
    torn_tail: bool = False

    def __post_init__(self) -> None:
        for name in ("read", "write", "sync", "rename"):
            rate = getattr(self, f"{name}_error_rate")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name}_error_rate out of [0, 1]: {rate}")
        if not 0.0 <= self.bitflip_rate <= 1.0:
            raise ValueError(f"bitflip_rate out of [0, 1]: {self.bitflip_rate}")
        for kind, nth in self.fail_nth.items():
            if kind not in ("read", "write", "sync", "rename"):
                raise ValueError(f"fail_nth: unknown op kind {kind!r}")
            if nth < 1:
                raise ValueError(f"fail_nth[{kind!r}] must be >= 1, got {nth}")
        if self.crash_at is not None and self.crash_at not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.crash_at!r}; one of {CRASH_POINTS}"
            )

    def to_json(self) -> str:
        defaults = FaultPlan()
        data = {
            name: getattr(self, name)
            for name in defaults.__dataclass_fields__
            if name == "seed" or getattr(self, name) != getattr(defaults, name)
        }
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fault plan JSON must be an object")
        return cls(**data)


class _DeterministicRNG:
    """A tiny seeded PRNG (xorshift64*) — stable across Python versions.

    ``random.Random`` would work, but pinning the generator keeps
    "byte-for-byte reproducible given the same seed" independent of
    stdlib implementation details.
    """

    def __init__(self, seed: int) -> None:
        self._state = (seed * 2654435769 + 0x9E3779B97F4A7C15) & (2**64 - 1) or 1

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12) & (2**64 - 1)
        x = (x ^ (x << 25)) & (2**64 - 1)
        x ^= (x >> 27) & (2**64 - 1)
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & (2**64 - 1)

    def uniform(self) -> float:
        return self.next_u64() / 2**64

    def randrange(self, n: int) -> int:
        return self.next_u64() % n if n > 0 else 0


class FaultyStorage(StorageWrapper):
    """Wrap ``inner``, injecting the faults a :class:`FaultPlan` asks for.

    Every append, sync, pread and rename first asks the plan whether to
    fail; a pread may come back bit-flipped; a sync marks the file's
    length durable for :meth:`frozen_storage`, and a close (which never
    fails: it runs while exceptions unwind) marks nothing.  ``try_pread``
    answers None, so the plan sees every read.

    Thread-safe: fault decisions and durability bookkeeping happen
    under one lock, so the background compactor and foreground writer
    draw from a single deterministic fault sequence.

    ``injected`` counts injections by kind (``read``/``write``/
    ``sync``/``rename``/``bitflip``/``crash``); mirrored into
    ``faults.injected.*`` counters once :meth:`attach_metrics` is
    called (the DB does this on open).
    """

    def __init__(self, inner: Storage, plan: Optional[FaultPlan] = None) -> None:
        from ..analysis.locksan import make_lock

        super().__init__(inner)
        self._lock = make_lock("devices.faults")
        self.injected: dict[str, int] = {}
        self.points_seen: list[str] = []
        self.crashed = False
        self._metrics = None
        #: durable byte length per file *written through this wrapper*;
        #: files never written through us are durable at full length.
        self._durable: dict[str, int] = {}
        self._created: set[str] = set()
        self._op_counts = {"read": 0, "write": 0, "sync": 0, "rename": 0}
        self._errors_injected = 0
        self.arm(plan or FaultPlan())

    # ------------------------------------------------------------- plan
    def arm(self, plan: FaultPlan) -> None:
        """Install ``plan`` (resets RNG, op counters, crash skip)."""
        with self._lock:
            self.plan = plan
            self._rng = _DeterministicRNG(plan.seed)
            self._op_counts = {k: 0 for k in self._op_counts}
            self._errors_injected = 0
            self._crash_skip_left = plan.crash_skip

    def disarm(self) -> None:
        """Stop injecting (durability tracking continues)."""
        self.arm(replace(self.plan, read_error_rate=0.0, write_error_rate=0.0,
                         sync_error_rate=0.0, rename_error_rate=0.0,
                         bitflip_rate=0.0, fail_nth={}, crash_at=None))

    def attach_metrics(self, metrics) -> None:
        """Mirror injection counts into ``faults.injected.*`` counters."""
        with self._lock:
            self._metrics = metrics
            for kind, n in self.injected.items():
                metrics.counter(f"faults.injected.{kind}").inc(n)

    # ------------------------------------------------------ fault engine
    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self._metrics is not None:
            self._metrics.counter(f"faults.injected.{kind}").inc()

    def _before_op(self, kind: str, name: str) -> None:
        with self._lock:
            if self.crashed:
                raise StorageError(
                    f"storage frozen after simulated crash ({kind} {name!r})"
                )
            self._op_counts[kind] += 1
            n = self._op_counts[kind]
            plan = self.plan
            budget = (
                plan.max_errors is None
                or self._errors_injected < plan.max_errors
            )
            hit = plan.fail_nth.get(kind) == n
            if not hit and budget:
                rate = getattr(plan, f"{kind}_error_rate")
                hit = rate > 0.0 and self._rng.uniform() < rate
            elif hit and not budget:
                hit = False
            if hit:
                self._errors_injected += 1
                self._count(kind)
                raise TransientIOError(
                    f"injected {kind} error (op #{n}) on {name!r}"
                )

    def _maybe_bitflip(self, data: bytes) -> bytes:
        with self._lock:
            plan = self.plan
            if (
                not data
                or plan.bitflip_rate <= 0.0
                or self._rng.uniform() >= plan.bitflip_rate
            ):
                return data
            pos = self._rng.randrange(len(data))
            bit = self._rng.randrange(8)
            self._count("bitflip")
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        return bytes(flipped)

    def _mark_durable(self, name: str, length: int) -> None:
        with self._lock:
            self._durable[name] = length

    # ------------------------------------------------------ crash points
    def crash_point(self, name: str) -> None:
        """Record a crash-point hit; raise if the plan arms this point."""
        with self._lock:
            self.points_seen.append(name)
            if self.crashed or self.plan.crash_at != name:
                return
            if self._crash_skip_left > 0:
                self._crash_skip_left -= 1
                return
            self.crashed = True
            self._count("crash")
        raise SimulatedCrash(name)

    def frozen_storage(self) -> MemStorage:
        """The synced disk image, as a fresh :class:`MemStorage`.

        Files written through this wrapper are truncated to their last
        synced length (plus a seeded torn prefix of the unsynced tail
        when the plan says ``torn_tail``); files created but never
        synced are dropped entirely — a journalled filesystem gives no
        guarantee they survive.  Files never written through us are
        taken whole.
        """
        with self._lock:
            image = MemStorage()
            for name in self.inner.list():
                data = self.inner.open(name).read_all()
                if name in self._durable:
                    dlen = self._durable[name]
                    if self.plan.torn_tail and len(data) > dlen:
                        dlen += self._rng.randrange(len(data) - dlen + 1)
                    if dlen == 0 and name in self._created:
                        continue
                    data = data[:dlen]
                with image.create(name) as f:
                    if data:
                        f.append(data)
                    f.sync()
            return image

    # ------------------------------------------------------- storage API
    def _append(self, f: WritableFile, name: str, data: bytes) -> None:
        self._before_op("write", name)
        f.append(data)

    def _sync(self, f: WritableFile, name: str) -> None:
        self._before_op("sync", name)
        f.sync()
        self._mark_durable(name, f.tell())

    def _pread(self, f: ReadableFile, name: str, offset: int, length: int) -> bytes:
        self._before_op("read", name)
        return self._maybe_bitflip(f.pread(offset, length))

    def create(self, name: str) -> WritableFile:
        with self._lock:
            if self.crashed:
                raise StorageError("storage frozen after simulated crash")
            self._durable[name] = 0
            self._created.add(name)
        return super().create(name)

    def open(self, name: str) -> ReadableFile:
        with self._lock:
            if self.crashed:
                raise StorageError("storage frozen after simulated crash")
        return super().open(name)

    def delete(self, name: str) -> None:
        with self._lock:
            if self.crashed:
                raise StorageError("storage frozen after simulated crash")
            self._durable.pop(name, None)
            self._created.discard(name)
        super().delete(name)

    def rename(self, old: str, new: str) -> None:
        self._before_op("rename", old)
        super().rename(old, new)
        with self._lock:
            # The rename itself is atomic+durable (journalled metadata);
            # the *content* keeps whatever durability it had.
            if old in self._durable:
                self._durable[new] = self._durable.pop(old)
            else:
                self._durable.pop(new, None)
            if old in self._created:
                self._created.discard(old)
                self._created.add(new)


def find_faulty(storage) -> Optional[FaultyStorage]:
    """The :class:`FaultyStorage` in a wrapper chain, if any.

    Walks ``.inner`` links (every :class:`StorageWrapper` exposes one),
    so the engine finds its fault injector no matter how the storage
    stack is composed.
    """
    seen = 0
    while storage is not None and seen < 16:
        if isinstance(storage, FaultyStorage):
            return storage
        storage = getattr(storage, "inner", None)
        seen += 1
    return None


def fire_crash_point(storage, name: str) -> None:
    """Fire crash point ``name`` if ``storage`` wraps a fault injector.

    A no-op on plain storage, so engine code sprinkles these freely;
    ``name`` should be one of :data:`CRASH_POINTS`.
    """
    faulty = find_faulty(storage)
    if faulty is not None:
        faulty.crash_point(name)


def corrupt_file(storage, name: str, offset: int, mask: int = 0xFF) -> None:
    """Flip bits at ``offset % size`` of ``name`` in place.

    The canonical corruption seeder for tests (previously duplicated as
    ``_corrupt`` helpers): XORs one byte with ``mask`` and rewrites the
    file through the storage API.
    """
    data = bytearray(storage.open(name).read_all())
    if not data:
        raise ValueError(f"cannot corrupt empty file {name!r}")
    data[offset % len(data)] ^= mask
    storage.delete(name)
    with storage.create(name) as f:
        f.append(bytes(data))
        f.sync()
