"""``python -m repro.analysis <paths>`` — run the RA verifier suite.

One invocation runs the per-file RA1xx/RA2xx rules over the given
paths.  ``--select`` narrows to specific codes, ``--format text|json``
picks the report, ``--list-rules`` prints the catalogue.  Lock order
and re-acquire are not checked here: the lock-order sanitizer
(``REPRO_LOCK_SANITIZER=1``, :mod:`repro.analysis.locksan`) checks them
while the test suite runs (docs/ANALYSIS.md says why).

Exit codes (CI contract):

* ``0`` — clean (warning-tier findings may still be reported; they
  never fail the gate)
* ``1`` — at least one error-severity finding survived suppression
* ``2`` — a file could not be parsed (RA001): the analysis is
  incomplete, which is worse than findings
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .engine import PARSE_ERROR_CODE, Finding, check_paths
from .report import render_json, render_text
from .rules import all_rules

__all__ = ["main", "build_parser", "run_analysis"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Concurrency-invariant and durability static analysis for "
            "the pipelined-compaction stack (RA1xx/RA2xx rules; see "
            "docs/ANALYSIS.md)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to analyze"
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def run_analysis(
    paths: Sequence[str], select: Optional[set[str]] = None
) -> list[Finding]:
    """The per-file rules over ``paths``, one sorted list."""
    rules = all_rules()
    if select is not None:
        rules = [rule for rule in rules if rule.code in select]
    findings = check_paths(paths, rules=rules)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def _exit_code(findings: Sequence[Finding]) -> int:
    if any(f.code == PARSE_ERROR_CODE for f in findings):
        return 2
    if any(f.severity == "error" for f in findings):
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into head and the reader closed early — not an
        # analysis failure.
        return 0


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
        return 0
    if not args.paths:
        parser.error("no paths given (or use --list-rules)")

    select: Optional[set[str]] = None
    if args.select:
        select = {code.strip().upper() for code in args.select.split(",")}
        unknown = select - {rule.code for rule in all_rules()}
        if unknown:
            parser.error(f"unknown rule code(s): {sorted(unknown)}")
    findings = run_analysis(args.paths, select=select)

    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return _exit_code(findings)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
