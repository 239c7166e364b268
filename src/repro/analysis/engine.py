"""The lint engine: parse, run rules, apply ``# repro: noqa`` filters.

Rules live in :mod:`repro.analysis.rules`; this module owns everything
rule-agnostic — file discovery, parsing (with parent links attached so
rules can look outward from a node), suppression comments, and the
:class:`Finding` record the reporters consume.

Suppression grammar, on the offending line::

    something_bad()  # repro: noqa[RA101]
    other_bad()      # repro: noqa[RA103,RA105]
    anything_bad()   # repro: noqa

A bare ``noqa`` silences every rule on that line; the bracketed form
silences only the listed codes.  Suppressions are per-line, matching
the reported line of the finding.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

__all__ = [
    "Finding",
    "attach_parents",
    "check_paths",
    "check_source",
    "iter_python_files",
    "noqa_lines",
]

PARSE_ERROR_CODE = "RA001"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``severity`` is ``error`` or ``warning`` (see
    :data:`repro.analysis.rules.SEVERITIES`).
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    severity: str = "error"

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "severity": self.severity,
        }


def attach_parents(tree: ast.AST) -> ast.AST:
    """Set ``node.parent`` on every node (rules walk outward with it)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]
    return tree


def noqa_lines(source: str) -> dict[int, Optional[frozenset[str]]]:
    """Map 1-based line number -> suppressed codes (None = all codes)."""
    out: dict[int, Optional[frozenset[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                code.strip().upper() for code in codes.split(",") if code.strip()
            )
    return out


def check_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence] = None,
) -> list[Finding]:
    """Run the rule set over one source text; returns sorted findings."""
    from .rules import all_rules, severity_for

    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                message=f"could not parse file: {exc.msg}",
            )
        ]
    attach_parents(tree)
    findings: list[Finding] = []
    for rule in rules if rules is not None else all_rules():
        findings.extend(rule.check(tree, source, path))
    suppressed = noqa_lines(source)
    kept = []
    for finding in findings:
        codes = suppressed.get(finding.line, frozenset())
        if codes is None or finding.code in codes:
            continue
        severity = severity_for(finding.code)
        if severity != finding.severity:
            finding = replace(finding, severity=severity)
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return kept


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d != "__pycache__" and not d.startswith(".")
            )
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(dirpath, name)
                if full not in seen:
                    seen.add(full)
                    yield full


def check_paths(
    paths: Sequence[str], rules: Optional[Sequence] = None
) -> list[Finding]:
    """Run the rule set over files and directory trees."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        findings.extend(check_source(source, path=path, rules=rules))
    return findings
