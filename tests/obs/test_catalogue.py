"""Every metric name the code records is in the one catalogue table.

The scan collects each name passed as a string literal to
``counter(`` / ``gauge(`` / ``histogram(`` / ``latency_histogram(``
anywhere under ``src/repro``; an f-string field ``{x}`` (or
``{obj.x}``) becomes ``<x>``, the placeholder the table uses.  The
table is the first column of "Metric name catalogue" in
docs/OBSERVABILITY.md, one backticked name per entry.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_CALL = re.compile(
    r"\b(?:counter|gauge|histogram|latency_histogram)\(\s*(f?)(['\"])(.+?)\2",
    re.S,
)
_FIELD = re.compile(r"\{(?:[^{}]*\.)?(\w+)\}")


def recorded_names() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for match in _CALL.finditer(path.read_text()):
            is_f, _, name = match.groups()
            names.add(_FIELD.sub(r"<\1>", name) if is_f else name)
    return names


def catalogued_names() -> set[str]:
    text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split("## Metric name catalogue", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_the_scan_finds_the_names_it_should():
    names = recorded_names()
    assert {"db.writes", "server.op.<name>.latency", "io.<device>.sync.ops",
            "faults.injected.<kind>", "repl.ack_wait_timeouts"} <= names
    assert len(names) > 70


def test_every_recorded_metric_name_is_catalogued():
    missing = sorted(recorded_names() - catalogued_names())
    assert not missing, f"not in docs/OBSERVABILITY.md's catalogue: {missing}"
