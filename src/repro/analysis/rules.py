"""The RA1xx concurrency-invariant rules.

Each rule is a function ``(tree, source, path) -> list[Finding]``
registered under a stable code.  Rules are *best-effort* AST
heuristics tuned for this codebase's idioms — they aim for zero false
positives on the tree they gate (``src tests benchmarks examples``),
with ``# repro: noqa[CODE]`` as the escape hatch for the remainder.

Catalogue (details + examples in docs/ANALYSIS.md):

* RA101 — ``Lock.acquire()`` outside ``with`` / try-finally
* RA102 — attribute written both with and without the class lock held
* RA103 — ``time.time()`` duration math in monotonic-clock code
* RA104 — ``threading.Thread`` without a ``name=`` (tracer attribution)
* RA105 — worker-loop ``except`` that swallows the exception
* RA106 — blocking ``queue.get()`` under a stop-flag loop (shutdown hang)

Mutable default arguments are ruff's B006, not a rule here.  The RA2xx
durability rules live in :mod:`repro.analysis.durability` and register
here.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .engine import Finding

__all__ = [
    "Rule",
    "SEVERITIES",
    "all_rules",
    "get_rule",
    "rule",
    "severity_for",
]

_REGISTRY: dict[str, "Rule"] = {}

#: Non-default severities; anything unlisted is an ``error``.  Warnings
#: are reported but do not fail the CI gate's exit code.
SEVERITIES: dict[str, str] = {
    "RA204": "warning",
}


def severity_for(code: str) -> str:
    return SEVERITIES.get(code.upper(), "error")


@dataclass(frozen=True)
class Rule:
    """A registered rule: stable code, one-line summary, checker."""

    code: str
    summary: str
    func: Callable[[ast.AST, str, str], list[Finding]]

    def check(self, tree: ast.AST, source: str, path: str) -> list[Finding]:
        return self.func(tree, source, path)


def rule(code: str, summary: str):
    """Register a checker function under ``code``."""

    def decorator(func):
        _REGISTRY[code] = Rule(code=code, summary=summary, func=func)
        return func

    return decorator


def all_rules() -> list[Rule]:
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    return _REGISTRY[code.upper()]


# --------------------------------------------------------------- helpers
#: Constructors whose result is treated as a lock-like object.  Includes
#: this repo's sanitizer factories so instrumented locks keep linting.
_LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "OrderedLock",
    "make_lock",
    "make_rlock",
}

_THREADING_MODULES = {"threading", "_thread"}


def _call_name(node: ast.Call) -> Optional[str]:
    """Trailing name of the called function (``threading.Lock`` -> Lock)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_lock_ctor(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and _call_name(node) in _LOCK_FACTORIES


def _expr_key(node: ast.expr) -> Optional[str]:
    """Dotted-name key for simple receivers: ``self._lock``, ``lock``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _expr_key(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _lock_names(tree: ast.AST) -> set[str]:
    """Terminal names ever assigned a lock constructor in this module.

    Collects both plain names (``error_lock = threading.Lock()``) and
    attribute tails (``self._lock = threading.RLock()`` -> ``_lock``),
    so later ``x.acquire()`` receivers can be matched by their tail.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        if value is None or not _is_lock_ctor(value):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "parent", None)


def _ancestors(node: ast.AST) -> Iterator[ast.AST]:
    current = _parent(node)
    while current is not None:
        yield current
        current = _parent(current)


def _enclosing_stmt(node: ast.AST) -> Optional[ast.stmt]:
    """The statement holding ``node`` directly inside a body list."""
    current: Optional[ast.AST] = node
    while current is not None:
        parent = _parent(current)
        if isinstance(current, ast.stmt) and parent is not None:
            for field in ("body", "orelse", "finalbody", "handlers"):
                block = getattr(parent, field, None)
                if isinstance(block, list) and current in block:
                    return current
        current = parent
    return None


def _sibling_block(stmt: ast.stmt) -> Optional[list[ast.stmt]]:
    parent = _parent(stmt)
    if parent is None:
        return None
    for field in ("body", "orelse", "finalbody"):
        block = getattr(parent, field, None)
        if isinstance(block, list) and stmt in block:
            return block
    return None


def _releases_in(nodes: list[ast.stmt], receiver_key: str) -> bool:
    return any(
        isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr == "release"
        and _expr_key(sub.func.value) == receiver_key
        for node in nodes
        for sub in ast.walk(node)
    )


def _in_finally(node: ast.AST) -> bool:
    current: Optional[ast.AST] = node
    while current is not None:
        parent = _parent(current)
        if isinstance(parent, ast.Try) and isinstance(current, ast.stmt):
            if current in parent.finalbody:
                return True
        current = parent
    return False


def _enclosing_class(node: ast.AST) -> Optional[ast.ClassDef]:
    for ancestor in _ancestors(node):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Keep climbing: methods live inside the class.
            continue
    return None


def _is_lock_adapter(cls: ast.ClassDef) -> bool:
    """True for classes that *are* lock wrappers (define acquire+release)."""
    defined = {
        item.name
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return "acquire" in defined and "release" in defined


# ----------------------------------------------------------------- RA101
@rule("RA101", "Lock.acquire() outside a with statement or try/finally")
def _ra101_raw_acquire(tree: ast.AST, source: str, path: str) -> list[Finding]:
    """Flag ``<lock>.acquire()`` with no structural release guarantee.

    Accepted shapes: ``with lock:``; acquire immediately followed by a
    ``try`` whose ``finally`` releases the same receiver; acquire inside
    a ``try`` body whose ``finally`` releases it; acquire inside any
    ``finally`` block (the release-around-a-region re-acquire pattern).
    Methods of lock-adapter classes (defining both ``acquire`` and
    ``release``) are exempt — forwarding raw calls is their job.
    """
    lock_names = _lock_names(tree)
    if not lock_names:
        return []
    findings = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            continue
        receiver = node.func.value
        receiver_key = _expr_key(receiver)
        if receiver_key is None:
            continue
        tail = receiver_key.rsplit(".", 1)[-1]
        if tail not in lock_names:
            continue
        cls = _enclosing_class(node)
        if cls is not None and _is_lock_adapter(cls):
            continue
        if _in_finally(node):
            continue
        stmt = _enclosing_stmt(node)
        if stmt is None:
            continue
        # Inside a try body that releases in its finally?
        guarded = False
        current: Optional[ast.AST] = stmt
        while current is not None and not guarded:
            parent = _parent(current)
            if (
                isinstance(parent, ast.Try)
                and isinstance(current, ast.stmt)
                and current in parent.body
                and _releases_in(parent.finalbody, receiver_key)
            ):
                guarded = True
            current = parent
        # Immediately followed by such a try?
        if not guarded:
            block = _sibling_block(stmt)
            if block is not None:
                index = block.index(stmt)
                if index + 1 < len(block):
                    following = block[index + 1]
                    if isinstance(following, ast.Try) and _releases_in(
                        following.finalbody, receiver_key
                    ):
                        guarded = True
        if not guarded:
            findings.append(
                Finding(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code="RA101",
                    message=(
                        f"raw {receiver_key}.acquire() without a matching "
                        "structural release — use 'with' or try/finally"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------- RA102
_RA102_EXEMPT_METHODS = {"__init__", "__new__", "__del__"}


def _init_only_methods(cls: ast.ClassDef) -> set[str]:
    """Methods reachable (via self-calls) only from ``__init__``.

    Such helpers run before the object is shared between threads, so
    their unguarded writes are construction, not races.
    """
    methods = {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def self_calls(func) -> set[str]:
        out = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.func.attr in methods
            ):
                out.add(node.func.attr)
        return out

    callers: dict[str, set[str]] = {name: set() for name in methods}
    for name, func in methods.items():
        for callee in self_calls(func):
            callers[callee].add(name)

    init_only: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, callsites in callers.items():
            if name in init_only or name == "__init__":
                continue
            if callsites and all(
                caller == "__init__" or caller in init_only
                for caller in callsites
            ):
                init_only.add(name)
                changed = True
    return init_only


@rule("RA102", "attribute written both with and without the class lock held")
def _ra102_mixed_guard(tree: ast.AST, source: str, path: str) -> list[Finding]:
    """Per-class: if ``self.<attr>`` is assigned under ``with self.<lock>``
    in one method and outside any such block in another, the locking
    discipline is inconsistent (one of the two sites is a race)."""
    findings = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        lock_attrs = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        lock_attrs.add(target.attr)
        if not lock_attrs:
            continue
        init_only = _init_only_methods(cls) | _RA102_EXEMPT_METHODS
        guarded_attrs: set[str] = set()
        unguarded_writes: dict[str, list[ast.AST]] = {}
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            exempt = item.name in init_only
            for node in ast.walk(item):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        attr = target.attr
                        if attr in lock_attrs:
                            continue
                        if _under_self_lock(node, lock_attrs):
                            guarded_attrs.add(attr)
                        elif not exempt:
                            unguarded_writes.setdefault(attr, []).append(node)
        for attr in sorted(guarded_attrs & set(unguarded_writes)):
            for node in unguarded_writes[attr]:
                findings.append(
                    Finding(
                        path=path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="RA102",
                        message=(
                            f"self.{attr} is written under the class lock "
                            "elsewhere but without it here — inconsistent "
                            "locking discipline"
                        ),
                    )
                )
    return findings


def _under_self_lock(node: ast.AST, lock_attrs: set[str]) -> bool:
    for ancestor in _ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                key = _expr_key(item.context_expr)
                if key is None and isinstance(item.context_expr, ast.Call):
                    key = _expr_key(item.context_expr.func)
                if key is None:
                    continue
                parts = key.split(".")
                if (
                    len(parts) >= 2
                    and parts[0] == "self"
                    and parts[1] in lock_attrs
                ):
                    return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


# ----------------------------------------------------------------- RA103
def _is_time_time(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "time"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "time"
    )


@rule("RA103", "time.time() duration math in code that uses perf_counter")
def _ra103_wall_clock_duration(
    tree: ast.AST, source: str, path: str
) -> list[Finding]:
    """In a module that already uses a monotonic clock, ``time.time()``
    feeding a subtraction is almost certainly a duration measured on the
    wall clock — NTP steps and DST corrupt it; use ``perf_counter``."""
    if "perf_counter" not in source:
        return []
    uses_monotonic = any(
        isinstance(node, ast.Attribute)
        and node.attr in ("perf_counter", "monotonic")
        or isinstance(node, ast.Name)
        and node.id in ("perf_counter", "monotonic")
        for node in ast.walk(tree)
    )
    if not uses_monotonic:
        return []
    findings = []
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    flagged: set[int] = set()
    for scope in scopes:
        assigned_from_wall: dict[str, ast.Call] = {}
        subtracted_names: set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and _is_time_time(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned_from_wall[target.id] = node.value
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                for operand in (node.left, node.right):
                    if _is_time_time(operand) and id(operand) not in flagged:
                        flagged.add(id(operand))
                        findings.append(
                            _ra103_finding(operand, path)
                        )
                    if isinstance(operand, ast.Name):
                        subtracted_names.add(operand.id)
        for name in sorted(assigned_from_wall.keys() & subtracted_names):
            call = assigned_from_wall[name]
            if id(call) not in flagged:
                flagged.add(id(call))
                findings.append(_ra103_finding(call, path))
    return findings


def _ra103_finding(node: ast.AST, path: str) -> Finding:
    return Finding(
        path=path,
        line=node.lineno,
        col=node.col_offset,
        code="RA103",
        message=(
            "time.time() used for a duration in monotonic-clock code — "
            "use time.perf_counter() for spans and latencies"
        ),
    )


# ----------------------------------------------------------------- RA104
@rule("RA104", "threading.Thread created without a name=")
def _ra104_unnamed_thread(tree: ast.AST, source: str, path: str) -> list[Finding]:
    """Unnamed threads render as ``Thread-7`` in traces, which breaks
    the tracer's per-thread span attribution (one gantt track per
    thread name).  Every spawned thread must carry ``name=``."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_thread = (
            isinstance(func, ast.Attribute)
            and func.attr == "Thread"
            and isinstance(func.value, ast.Name)
            and func.value.id in _THREADING_MODULES
        ) or (isinstance(func, ast.Name) and func.id == "Thread")
        if not is_thread:
            continue
        if any(kw.arg == "name" for kw in node.keywords):
            continue
        if any(kw.arg is None for kw in node.keywords):  # **kwargs: unknowable
            continue
        findings.append(
            Finding(
                path=path,
                line=node.lineno,
                col=node.col_offset,
                code="RA104",
                message=(
                    "threading.Thread without name= — unnamed threads "
                    "break tracer span attribution"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------- RA105
_BROAD_EXC = {"Exception", "BaseException"}


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        if name in _BROAD_EXC:
            return True
    return False


@rule("RA105", "worker-loop except swallows the exception silently")
def _ra105_swallowed_exception(
    tree: ast.AST, source: str, path: str
) -> list[Finding]:
    """Inside a loop, a broad ``except`` whose body neither re-raises,
    returns, nor calls anything (log, metric, error sink) turns worker
    crashes into silent wedges — the loop spins on as if nothing
    happened and the failure is unobservable."""
    findings = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.While, ast.For, ast.AsyncFor)):
            continue
        for node in ast.walk(loop):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node):
                continue
            handles = any(
                isinstance(sub, (ast.Raise, ast.Return, ast.Call))
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            if handles:
                continue
            findings.append(
                Finding(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code="RA105",
                    message=(
                        "broad except inside a loop swallows the exception "
                        "without logging, recording, or re-raising"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------- RA106
_STOP_FLAG_RE = re.compile(
    r"(stop|closed|close|shutdown|shut_down|cancel|abort|quit|running"
    r"|alive|exit|finished|draining)",
    re.IGNORECASE,
)


def _boolean_operands(test: ast.expr) -> Iterator[ast.expr]:
    """Operands used directly as booleans (not inside comparisons)."""
    stack = [test]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BoolOp):
            stack.extend(node.values)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            stack.append(node.operand)
        elif isinstance(node, (ast.Name, ast.Attribute, ast.Call)):
            yield node


def _has_stop_flag(test: ast.expr) -> bool:
    for operand in _boolean_operands(test):
        target = operand.func if isinstance(operand, ast.Call) else operand
        key = _expr_key(target)
        if key is not None and _STOP_FLAG_RE.search(key.rsplit(".", 1)[-1]):
            return True
    return False


@rule("RA106", "blocking queue.get() inside a stop-flag loop")
def _ra106_blocking_get(tree: ast.AST, source: str, path: str) -> list[Finding]:
    """A loop that checks a stop/closed flag but parks forever in a
    zero-argument ``.get()`` only re-checks the flag when an item
    happens to arrive — shutdown hangs until then.  Pass a timeout (or
    send a sentinel and prove the producer always does)."""
    findings = []
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.While) or not _has_stop_flag(loop.test):
            continue
        for node in ast.walk(loop):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and not node.args
            ):
                continue
            kwarg_names = {kw.arg for kw in node.keywords}
            if kwarg_names & {"timeout", "block", None}:
                continue
            findings.append(
                Finding(
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    code="RA106",
                    message=(
                        "blocking .get() with no timeout inside a loop that "
                        "checks a stop flag — shutdown can hang; pass "
                        "timeout= and re-check the flag"
                    ),
                )
            )
    return findings


# The RA2xx family registers itself via the ``rule`` decorator above;
# imported last so the decorator and helpers it needs already exist.
from . import durability  # noqa: E402,F401
