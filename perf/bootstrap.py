"""Locate the program under test from inside a checkout.

The benchmark is run as ``python3 perf/run.py`` from the root of a
checkout; the program it measures lives in ``src/repro`` of the same
checkout and is imported from source (pure Python, nothing to build).
In a directory that holds only the benchmark's own files there is no
program to measure, and the entry points must fail before printing a
result.
"""

from __future__ import annotations

import os
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")


def require_program() -> None:
    """Put ``src/`` on ``sys.path`` or exit 2 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perf: no program to measure: {SRC}/repro is missing "
            "(run from a full checkout)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
