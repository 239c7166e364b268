"""ASCII Gantt rendering of compaction schedules and span traces.

The paper explains PCP with timeline drawings (Figs 3, 4, 6, 7: which
sub-task occupies which resource when).  :func:`render_gantt` produces
the same picture from a :class:`~repro.core.backends.simbackend.ScheduleResult`
timeline, one row per (stage, worker), sub-tasks labelled 0-9a-z::

    read  |000111222333
    cpu   |...000111222333
    write |......000111222333

:func:`schedule_from_spans` builds the same timeline from *real* spans
recorded by a :class:`repro.obs.Tracer` (stage = span category, worker
= recording thread), so a live PCP compaction renders next to its
simulated schedule in the same format.

Useful in examples and docs; also a debugging aid for the scheduler.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.backends.simbackend import ScheduleResult, TimelineEvent

__all__ = ["render_gantt", "schedule_from_spans"]

_STAGE_ORDER = {"read": 0, "compute": 1, "write": 2}
_LABELS = "0123456789abcdefghijklmnopqrstuvwxyz"


def render_gantt(result: ScheduleResult, width: int = 72) -> str:
    """Render the schedule's timeline as fixed-width ASCII rows.

    ``result`` is simulated, or built from tracer spans by
    :func:`schedule_from_spans`.
    """
    if not result.timeline or result.makespan <= 0:
        return "(empty schedule)"
    scale = (width - 1) / result.makespan

    # Rows keyed by (stage order, stage, worker).
    rows: dict[tuple[int, str, int], list[str]] = {}
    for ev in result.timeline:
        key = (_STAGE_ORDER.get(ev.stage, 9), ev.stage, ev.worker)
        row = rows.setdefault(key, [" "] * width)
        start = int(ev.start * scale)
        end = max(start + 1, int(ev.end * scale))
        for i in range(start, min(end, width)):
            row[i] = _LABELS[ev.index % len(_LABELS)]

    lines = []
    label_width = max(len(f"{stage}[{worker}]") for _, stage, worker in rows)
    for (_, stage, worker), cells in sorted(rows.items()):
        multi = sum(1 for k in rows if k[1] == stage) > 1
        name = f"{stage}[{worker}]" if multi else stage
        lines.append(f"{name:<{label_width}} |{''.join(cells)}")
    lines.append(
        f"{'':<{label_width}}  0{'-' * (width - 12)}{result.makespan * 1e3:.1f} ms"
    )
    util = result.breakdown_fractions()
    lines.append(
        f"{'':<{label_width}}  busy: "
        + ", ".join(f"{k} {v * 100:.0f}%" for k, v in util.items())
    )
    return "\n".join(lines)


def schedule_from_spans(
    spans: Sequence, cats: Optional[set] = None
) -> ScheduleResult:
    """Map :class:`repro.obs.Span` objects onto a gantt timeline.

    Stage = the span's category, worker = an integer assigned per
    (stage, thread) in order of first appearance, sub-task label = the
    span's ``subtask`` arg.  ``cats`` filters which categories to draw
    (default: the pipeline stages read/compute/write).  Spans carry no
    byte counts, so ``total_bytes`` is 0.
    """
    cats = cats if cats is not None else {"read", "compute", "write"}
    picked = [s for s in spans if s.cat in cats]
    if not picked:
        return ScheduleResult(0.0, n_subtasks=0, total_bytes=0, stage_busy={})
    t0 = min(s.start for s in picked)
    workers: dict[tuple[str, str], int] = {}
    timeline: list[TimelineEvent] = []
    busy: dict[str, float] = {}
    for span in sorted(picked, key=lambda s: s.start):
        key = (span.cat, span.thread)
        if key not in workers:
            workers[key] = sum(1 for k in workers if k[0] == span.cat)
        timeline.append(
            TimelineEvent(
                index=int(span.args.get("subtask", 0)),
                stage=span.cat,
                start=span.start - t0,
                end=span.end - t0,
                worker=workers[key],
            )
        )
        busy[span.cat] = busy.get(span.cat, 0.0) + span.duration
    return ScheduleResult(
        makespan=max(e.end for e in timeline),
        n_subtasks=len({e.index for e in timeline}),
        total_bytes=0,
        stage_busy=busy,
        timeline=timeline,
    )
