"""Dynamic lock-order sanitizer: ``OrderedLock`` + a process-wide graph.

Deadlocks in the pipelined stack are ordering bugs: thread 1 takes the
DB mutex then the cache lock while thread 2 takes them the other way
round.  Each :class:`OrderedLock` acquisition records, for every lock
the calling thread already holds, a directed *held -> acquiring* edge
in a shared :class:`LockGraph`.  The first edge that closes a cycle
raises :class:`LockOrderViolation` carrying **both** stacks — where
the conflicting order was first established and where it was just
contradicted — so the inversion is caught the first time the two code
paths ever run, not the unlucky run where they interleave into an
actual deadlock.

Enabling
========

The engine's locks are created through :func:`make_lock` /
:func:`make_rlock`.  By default these return plain ``threading``
primitives (zero overhead); with ``REPRO_LOCK_SANITIZER=1`` in the
environment they return instrumented :class:`OrderedLock` objects
feeding the process-wide graph, so any test run or workload doubles as
a deadlock detector::

    REPRO_LOCK_SANITIZER=1 python -m pytest -x -q

Instrumented locks: every ``make_lock``/``make_rlock`` site — the DB
mutex (which also guards the version set) and its file-number and
get-counter locks, the block cache, the in-memory and fault-injecting
storages, the observability registry, metrics, event log and tracer,
the replication hub, follower, failover and client locks, the server's
promote and circuit-breaker locks, and the cluster compute pool.  The
compaction executor takes no engine lock: the calling thread runs S1
and S7 and hands S2–S6 to a pool through futures, so it adds no edges.

This is the repo's one lock-order and re-acquire check.  Because edges
are recorded where locks are actually taken, it sees orders a static
call graph cannot: a callback (the DB's WAL listener takes the hub lock
under ``db.mutex``), or a call through an attribute of unknown type
(``self._db.snapshot()``).  docs/ANALYSIS.md has the planted defects
that decided this.

:class:`OrderedLock` also implements the private ``_release_save`` /
``_acquire_restore`` / ``_is_owned`` protocol, so it can back a
``threading.Condition`` (the DB's ``_bg_wake`` does exactly that).

With ``REPRO_RACE_SANITIZER=1`` (:mod:`repro.analysis.racesan`) the
factories also hand out :class:`OrderedLock` objects, used purely as
happens-before synchronization points: each outermost acquire/release
joins/publishes the owning thread's vector clock.  Both sanitizers can
run together; each hook is gated independently.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Optional

from . import racesan

__all__ = [
    "LOCK_SANITIZER_ENV",
    "LockGraph",
    "LockOrderViolation",
    "OrderedLock",
    "global_graph",
    "make_lock",
    "make_rlock",
    "sanitizer_enabled",
]

LOCK_SANITIZER_ENV = "REPRO_LOCK_SANITIZER"


def sanitizer_enabled() -> bool:
    """True when ``REPRO_LOCK_SANITIZER`` is set to a non-empty, non-0."""
    return os.environ.get(LOCK_SANITIZER_ENV, "") not in ("", "0")


class LockOrderViolation(RuntimeError):
    """Raised when an acquisition would close a cycle in the lock graph."""


def _capture_stack(skip: int = 2) -> str:
    """Formatted stack of the caller, minus sanitizer-internal frames."""
    frames = traceback.format_stack()
    return "".join(frames[: -skip or None])


class LockGraph:
    """Directed lock-order graph with first-seen stacks per edge.

    Nodes are lock *names* (two DBs both name their mutex ``db.mutex``:
    ordering discipline is per role, not per instance).  Thread-safe;
    the graph's own mutex is a raw ``threading.Lock`` so the sanitizer
    cannot recurse into itself.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._edges: dict[tuple[str, str], str] = {}
        self._succ: dict[str, set[str]] = {}
        #: Violation records (dicts with ``cycle``/``stack_now``/
        #: ``prior_stacks`` keys), kept even though on_acquire raises,
        #: so harnesses can assert on what fired.
        self.violations: list[dict] = []

    def reset(self) -> None:
        """Drop all recorded edges and violations (test isolation)."""
        with self._mutex:
            self._edges.clear()
            self._succ.clear()
            self.violations.clear()

    def edges(self) -> list[tuple[str, str]]:
        with self._mutex:
            return sorted(self._edges)

    def _path(self, src: str, dst: str) -> Optional[list[str]]:
        """A directed path src -> ... -> dst, or None (caller holds mutex)."""
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for succ in self._succ.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    def on_acquire(self, name: str, held: list[str]) -> None:
        """Record held->name edges; raise if one would close a cycle."""
        with self._mutex:
            for held_name in held:
                if held_name == name:
                    continue
                if (held_name, name) in self._edges:
                    continue
                back_path = self._path(name, held_name)
                if back_path is not None:
                    stack_now = _capture_stack(skip=3)
                    prior = [
                        (a, b, self._edges[(a, b)])
                        for a, b in zip(back_path, back_path[1:])
                    ]
                    # back_path runs name -> ... -> held_name; prepending
                    # held_name closes it via the edge being attempted now.
                    cycle = [held_name] + back_path
                    record = {
                        "cycle": cycle,
                        "acquiring": name,
                        "holding": held_name,
                        "stack_now": stack_now,
                        "prior_stacks": prior,
                    }
                    self.violations.append(record)
                    raise LockOrderViolation(self._format(record))
                self._edges[(held_name, name)] = _capture_stack(skip=3)
                self._succ.setdefault(held_name, set()).add(name)

    def on_reacquire(self, name: str) -> None:
        """The owner re-acquires a non-recursive lock: it would block on
        itself forever, so record the violation and raise instead."""
        record = {
            "cycle": [name, name],
            "acquiring": name,
            "holding": name,
            "stack_now": _capture_stack(skip=3),
            "prior_stacks": [],
        }
        with self._mutex:
            self.violations.append(record)
        raise LockOrderViolation(self._format(record))

    @staticmethod
    def _format(record: dict) -> str:
        if record["acquiring"] == record["holding"]:
            headline = (
                f"self-deadlock detected: non-recursive lock "
                f"{record['acquiring']!r} re-acquired by the thread "
                "that holds it"
            )
        else:
            headline = (
                "lock-order inversion detected: acquiring "
                f"{record['acquiring']!r} while holding "
                f"{record['holding']!r} closes the cycle "
                f"{' -> '.join(record['cycle'])}"
            )
        lines = [
            headline,
            "",
            "conflicting acquisition (now):",
            record["stack_now"].rstrip(),
        ]
        for src, dst, stack in record["prior_stacks"]:
            lines += [
                "",
                f"prior order {src} -> {dst} first established here:",
                stack.rstrip(),
            ]
        return "\n".join(lines)


_GLOBAL_GRAPH = LockGraph()


def global_graph() -> LockGraph:
    """The process-wide graph every factory-made lock reports into."""
    return _GLOBAL_GRAPH


class _HeldState(threading.local):
    """Per-thread acquisition state: ordered names + per-lock depths."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.depth: dict[int, int] = {}


_HELD = _HeldState()


class OrderedLock:
    """A ``Lock``/``RLock`` that reports acquisitions to a LockGraph.

    Drop-in for the engine's internal locks: supports ``with``, the
    blocking/timeout ``acquire`` signature, and (in recursive mode) the
    private protocol ``threading.Condition`` needs.  Ordering edges are
    recorded *before* blocking on the underlying primitive, so a true
    deadlock raises instead of hanging; so does a blocking re-acquire of
    a non-recursive lock by the thread that holds it.
    """

    def __init__(
        self,
        name: str,
        recursive: bool = False,
        graph: Optional[LockGraph] = None,
        track_order: bool = True,
    ) -> None:
        self.name = name
        self.recursive = recursive
        self.track_order = track_order
        self._graph = graph if graph is not None else _GLOBAL_GRAPH
        self._race = (
            racesan.global_detector()
            if racesan.race_sanitizer_enabled()
            else None
        )
        self._inner = threading.RLock() if recursive else threading.Lock()

    def __repr__(self) -> str:
        kind = "RLock" if self.recursive else "Lock"
        return f"OrderedLock({self.name!r}, {kind})"

    # ----------------------------------------------------- held tracking
    def _depth(self) -> int:
        return _HELD.depth.get(id(self), 0)

    def _note_acquired(self) -> None:
        key = id(self)
        depth = _HELD.depth.get(key, 0)
        _HELD.depth[key] = depth + 1
        if depth == 0:
            _HELD.names.append(self.name)

    def _note_released(self) -> None:
        key = id(self)
        depth = _HELD.depth.get(key, 0)
        if depth <= 1:
            _HELD.depth.pop(key, None)
            self._remove_held_name()
        else:
            _HELD.depth[key] = depth - 1

    def _remove_held_name(self) -> None:
        for index in range(len(_HELD.names) - 1, -1, -1):
            if _HELD.names[index] == self.name:
                del _HELD.names[index]
                return

    # ---------------------------------------------------------- lock API
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        outermost = self._depth() == 0
        if not outermost and not self.recursive and blocking:
            self._graph.on_reacquire(self.name)
        if outermost and self.track_order:
            self._graph.on_acquire(self.name, list(_HELD.names))
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._note_acquired()
            if outermost and self._race is not None:
                self._race.acquire(("lock", id(self)))
        return ok

    def release(self) -> None:
        if self._race is not None and self._depth() == 1:
            self._race.release(("lock", id(self)))
        self._inner.release()
        self._note_released()

    def locked(self) -> bool:
        if self.recursive:
            return self._depth() > 0
        return self._inner.locked()

    def __enter__(self) -> "OrderedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ---------------------- threading.Condition private-lock protocol
    def _is_owned(self) -> bool:
        if self.recursive:
            return self._inner._is_owned()
        return self._depth() > 0

    def _release_save(self):
        """Fully release (Condition.wait), returning restore state."""
        if self._race is not None:
            self._race.release(("lock", id(self)))
        depth = _HELD.depth.pop(id(self), 0)
        self._remove_held_name()
        if self.recursive:
            inner_state = self._inner._release_save()
        else:
            self._inner.release()
            inner_state = None
        return (inner_state, depth)

    def _acquire_restore(self, state) -> None:
        inner_state, depth = state
        if self.track_order:
            self._graph.on_acquire(self.name, list(_HELD.names))
        if self.recursive:
            self._inner._acquire_restore(inner_state)
        else:
            self._inner.acquire()
        _HELD.depth[id(self)] = max(depth, 1)
        _HELD.names.append(self.name)
        if self._race is not None:
            self._race.acquire(("lock", id(self)))


def _instrumented() -> bool:
    """Either sanitizer wants factory locks wrapped."""
    if sanitizer_enabled():
        return True
    if racesan.race_sanitizer_enabled():
        racesan.install()
        return True
    return False


def make_lock(name: str) -> "threading.Lock | OrderedLock":
    """A non-recursive engine lock; instrumented when a sanitizer is on."""
    if _instrumented():
        return OrderedLock(name, track_order=sanitizer_enabled())
    return threading.Lock()


def make_rlock(name: str) -> "threading.RLock | OrderedLock":
    """A recursive engine lock; instrumented when a sanitizer is on."""
    if _instrumented():
        return OrderedLock(
            name, recursive=True, track_order=sanitizer_enabled()
        )
    return threading.RLock()
