"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json
from typing import Sequence

from .engine import Finding

__all__ = ["render_json", "render_text"]


def _counts(findings: Sequence[Finding]) -> dict[str, int]:
    by_code: dict[str, int] = {}
    for finding in findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    return by_code


def render_text(findings: Sequence[Finding]) -> str:
    """One ``path:line:col CODE message`` line per finding + summary."""
    if not findings:
        return "no findings"
    lines = []
    for finding in findings:
        tag = " (warning)" if finding.severity == "warning" else ""
        lines.append(
            f"{finding.location()} {finding.code}{tag} {finding.message}"
        )
    summary = " ".join(
        f"{code}={n}" for code, n in sorted(_counts(findings).items())
    )
    lines.append(f"{len(findings)} finding(s): {summary}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """JSON document: finding list plus per-code counts."""
    return json.dumps(
        {
            "findings": [finding.as_dict() for finding in findings],
            "counts": _counts(findings),
            "total": len(findings),
        },
        indent=2,
        sort_keys=True,
    )
