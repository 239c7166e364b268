"""Concurrency & durability verification: static rules + sanitizers.

The pipelined compaction design (Eq. 2: ``B_pcp = l / max(t1, Σt2..6,
t7)``) moves every correctness property of this repo into threading
code: the PCP backends' queue handoffs, the DB's stall/flush locking,
the asyncio server's backpressure.  Generic linters cannot see an
un-context-managed ``Lock.acquire()``, a lock-order inversion against
the DB mutex, or a rename that publishes unsynced bytes — so this
package checks those invariants itself, three ways, one checker per
property (docs/ANALYSIS.md holds the planted-defect table that chose
them):

* **Per-file static rules** (:mod:`repro.analysis.engine`,
  :mod:`repro.analysis.rules`, :mod:`repro.analysis.durability`) — an
  AST lint engine with repo-specific RA1xx concurrency and RA2xx
  durability/commit-protocol rules, ``# repro: noqa[CODE]``
  suppression, and text/JSON reporters.  Run it with
  ``python -m repro.analysis <paths>``.
* **Dynamic lock-order sanitizer** (:mod:`repro.analysis.locksan`) —
  an :class:`OrderedLock` wrapper feeding a process-wide lock-order
  graph with cycle detection; it also raises on a non-recursive
  re-acquire.  This is the lock-order and re-acquire check.  Enable
  with ``REPRO_LOCK_SANITIZER=1``.
* **Dynamic happens-before race sanitizer**
  (:mod:`repro.analysis.racesan`) — per-thread vector clocks
  synchronized through the lock factories, queues, and thread
  start/join; ``shared_state()``/``@guarded_by`` instrumentation on
  the hot shared objects flags unsynchronized conflicting accesses
  with both stacks.  Enable with ``REPRO_RACE_SANITIZER=1``.

See ``docs/ANALYSIS.md`` for the rule catalogue and workflows.
"""

from .engine import Finding, check_paths, check_source, iter_python_files
from .locksan import (
    LOCK_SANITIZER_ENV,
    LockGraph,
    LockOrderViolation,
    OrderedLock,
    global_graph,
    make_lock,
    make_rlock,
    sanitizer_enabled,
)
from .racesan import (
    RACE_SANITIZER_ENV,
    DataRaceError,
    GuardViolation,
    global_detector,
    guarded_by,
    race_sanitizer_enabled,
    shared_state,
)
from .report import render_json, render_text
from .rules import SEVERITIES, Rule, all_rules, get_rule, severity_for

__all__ = [
    "DataRaceError",
    "Finding",
    "GuardViolation",
    "LOCK_SANITIZER_ENV",
    "LockGraph",
    "LockOrderViolation",
    "OrderedLock",
    "RACE_SANITIZER_ENV",
    "Rule",
    "SEVERITIES",
    "all_rules",
    "check_paths",
    "check_source",
    "get_rule",
    "global_detector",
    "global_graph",
    "guarded_by",
    "iter_python_files",
    "make_lock",
    "make_rlock",
    "race_sanitizer_enabled",
    "render_json",
    "render_text",
    "sanitizer_enabled",
    "severity_for",
    "shared_state",
]
