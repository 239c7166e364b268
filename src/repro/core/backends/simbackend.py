"""Virtual-time execution of the compaction procedures.

This backend computes the *schedule* of SCP/PCP/S-PPCP/C-PPCP from
the cost model's per-sub-task stage times: deterministic makespans,
stage busy times and timelines — the quantities behind every figure of
the paper — without depending on wall-clock behaviour (which the GIL
would distort for a pure-Python threaded build; see DESIGN.md).

Model choices, stated explicitly:

* The read stage and the write stage are separate servers even on a
  single device (``shared_io=False``), matching the paper's Eq 2 where
  ``t1`` and ``t7`` appear as independent ``max`` terms.  NCQ and the
  HDD write-back buffer make this defensible; ``shared_io=True`` is
  provided as an ablation where S1 and S7 contend for one device.
* S-PPCP assigns sub-task *i* to device *i mod k* (paper: "Step 1 of
  sub-task 1 is scheduled on disk 1 and Step 1 of sub-task 2 is
  scheduled on disk 2"), with one read worker and one write worker per
  device.
* C-PPCP runs ``compute_workers`` identical compute workers pulling
  from the inter-stage queue.  ``handoff_overhead_s`` models the
  serialized synchronisation cost of the shared queues: each handoff
  holds a global lock for ``handoff_overhead_s * (compute_workers-1)``
  seconds, which is what makes throughput *decline* past the
  saturation point (paper Fig 12(d-f): "this is due to the overhead of
  creation and synchronization of multiple threads").

The pipelined schedule is one event loop: a heap of ``(time, seq,
continuation)``, FIFO servers (each device's read and write sides, one
side under ``shared_io``, and the hand-off lock) and two bounded FIFO
queues.  Tie rule: events due at one instant run in the order they were
scheduled, and every hand-off (a server granted, an item put or got, a
worker's exit, a queue's close) is a zero-delay event, so it runs
behind the events already due at that instant, never inline.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from ..costmodel import StageTimes

__all__ = ["SimJob", "PipelineConfig", "TimelineEvent", "ScheduleResult",
           "simulate_scp", "simulate_pipeline"]


@dataclass(frozen=True)
class SimJob:
    """One sub-task as the scheduler sees it."""

    index: int
    times: StageTimes
    nbytes: int


@dataclass(frozen=True)
class PipelineConfig:
    """Shape of the pipelined procedure.

    PCP      → defaults.
    S-PPCP   → ``n_devices=k`` (read/write workers follow the device
               count automatically).
    C-PPCP   → ``compute_workers=k`` (optionally with
               ``handoff_overhead_s`` > 0).
    """

    compute_workers: int = 1
    n_devices: int = 1
    queue_capacity: int = 2
    shared_io: bool = False
    handoff_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        if self.compute_workers < 1:
            raise ValueError("compute_workers must be >= 1")
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.handoff_overhead_s < 0:
            raise ValueError("handoff_overhead_s must be >= 0")


@dataclass(frozen=True)
class TimelineEvent:
    """One stage execution interval."""

    index: int
    stage: str  # "read" | "compute" | "write"
    start: float
    end: float
    worker: int


@dataclass
class ScheduleResult:
    """Outcome of a simulated compaction schedule."""

    makespan: float
    n_subtasks: int
    total_bytes: int
    stage_busy: dict[str, float]
    timeline: list[TimelineEvent] = field(default_factory=list)

    def bandwidth(self) -> float:
        """Compaction bandwidth: input bytes per virtual second."""
        if self.makespan <= 0:
            return 0.0
        return self.total_bytes / self.makespan

    def breakdown_fractions(self) -> dict[str, float]:
        """Busy-time share per stage (sums to 1 over busy time)."""
        total = sum(self.stage_busy.values())
        if total <= 0:
            return {k: 0.0 for k in self.stage_busy}
        return {k: v / total for k, v in self.stage_busy.items()}


def simulate_scp(jobs: Sequence[SimJob]) -> ScheduleResult:
    """Sequential Compaction Procedure: strict S1..S7 per sub-task.

    The makespan is exactly ``Σ (t1 + tc + t7)`` (Eq 1's denominator
    summed over sub-tasks); a timeline is still produced for plotting.
    """
    now = 0.0
    timeline: list[TimelineEvent] = []
    busy = {"read": 0.0, "compute": 0.0, "write": 0.0}
    for job in jobs:
        t = job.times
        for stage, seconds in (("read", t.t_read), ("compute", t.t_compute),
                               ("write", t.t_write)):
            timeline.append(TimelineEvent(job.index, stage, now, now + seconds, 0))
            now += seconds
            busy[stage] += seconds
    return ScheduleResult(
        makespan=now,
        n_subtasks=len(jobs),
        total_bytes=sum(j.nbytes for j in jobs),
        stage_busy=busy,
        timeline=timeline,
    )


class _Loop:
    """Virtual clock and the heap of ``(time, seq, continuation, args)``."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list = []
        self._seq = itertools.count()

    def at(self, delay: float, fn: Callable, *args) -> None:
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def run(self) -> float:
        while self._heap:
            self.now, _, fn, args = heapq.heappop(self._heap)
            fn(*args)
        return self.now


class _Server:
    """One FIFO server: a device side or the hand-off lock."""

    def __init__(self, loop: _Loop) -> None:
        self._loop = loop
        self._busy = False
        self._waiting: deque = deque()

    def hold(self, seconds: float, then: Callable[[float], None]) -> None:
        """Once granted, hold the server ``seconds``, release it, ``then(start)``."""
        loop = self._loop

        def granted() -> None:
            loop.at(seconds, done, loop.now)

        def done(start: float) -> None:
            if self._waiting:
                loop.at(0.0, self._waiting.popleft())
            else:
                self._busy = False
            then(start)

        if self._busy:
            self._waiting.append(granted)
        else:
            self._busy = True
            loop.at(0.0, granted)


class _Queue:
    """Bounded FIFO between two stages; a getter gets ``None`` once the
    queue is closed and drained."""

    def __init__(self, loop: _Loop, capacity: int) -> None:
        self._loop = loop
        self._capacity = capacity
        self._items, self._getters, self._putters = deque(), deque(), deque()
        self._closed = False

    def put(self, item: SimJob, then: Callable[[], None]) -> None:
        """``then()`` once ``item`` is in the queue."""
        if self._getters:
            self._loop.at(0.0, self._getters.popleft(), item)
            self._loop.at(0.0, then)
        elif len(self._items) < self._capacity:
            self._items.append(item)
            self._loop.at(0.0, then)
        else:
            self._putters.append((item, then))

    def get(self, then: Callable[[Optional[SimJob]], None]) -> None:
        """``then(item)`` with the oldest item, or ``then(None)``."""
        if self._items:
            item = self._items.popleft()
            if self._putters:
                waiting, putter = self._putters.popleft()
                self._items.append(waiting)
                self._loop.at(0.0, putter)
            self._loop.at(0.0, then, item)
        elif self._closed:
            self._loop.at(0.0, then, None)
        else:
            self._getters.append(then)

    def close(self) -> None:
        self._closed = True
        while self._getters:  # only an empty queue has getters waiting
            self._loop.at(0.0, self._getters.popleft(), None)


def simulate_pipeline(
    jobs: Sequence[SimJob], config: Optional[PipelineConfig] = None
) -> ScheduleResult:
    """Pipelined Compaction Procedure and its parallel variants.

    ``n_devices`` readers (reader *d* reads sub-tasks *d*, *d + k*, ...
    on device *d*), ``compute_workers`` compute workers and
    ``n_devices`` writers (sub-task *i* is written on device *i mod
    k*), joined by the two queues.  The last reader's exit closes the
    compute queue, the last compute worker's the write queue.
    """
    config = config or PipelineConfig()
    jobs = list(jobs)
    busy = {"read": 0.0, "compute": 0.0, "write": 0.0}
    if not jobs:
        return ScheduleResult(0.0, 0, 0, busy)

    loop = _Loop()
    k, workers = config.n_devices, config.compute_workers
    reads = [_Server(loop) for _ in range(k)]
    writes = reads if config.shared_io else [_Server(loop) for _ in range(k)]
    to_compute = _Queue(loop, config.queue_capacity)
    to_write = _Queue(loop, config.queue_capacity)
    lock = _Server(loop) if config.handoff_overhead_s > 0 and workers > 1 else None
    lock_s = config.handoff_overhead_s * (workers - 1)
    feeders = {to_compute: k, to_write: workers}
    timeline: list[TimelineEvent] = []

    def record(job: SimJob, stage: str, start: float, worker: int) -> None:
        busy[stage] += loop.now - start
        timeline.append(TimelineEvent(job.index, stage, start, loop.now, worker))

    def exited(output: _Queue) -> None:
        feeders[output] -= 1
        if not feeders[output]:
            loop.at(0.0, output.close)

    def handoff(then: Callable[[], None]) -> None:
        if lock is None:
            then()
        else:
            lock.hold(lock_s, lambda _start: then())

    def read(d: int, todo) -> None:
        job = next(todo, None)
        if job is None:
            loop.at(0.0, exited, to_compute)
            return

        def done(start: float) -> None:
            record(job, "read", start, d)
            to_compute.put(job, lambda: read(d, todo))

        reads[d].hold(job.times.t_read, done)

    def compute(c: int, job: Optional[SimJob]) -> None:
        if job is None:
            loop.at(0.0, exited, to_write)
            return

        def done(start: float) -> None:
            record(job, "compute", start, c)
            handoff(lambda: to_write.put(job, lambda: to_compute.get(partial(compute, c))))

        handoff(lambda: loop.at(job.times.t_compute, done, loop.now))

    def write(w: int, job: Optional[SimJob]) -> None:
        if job is None:
            return

        def done(start: float) -> None:
            record(job, "write", start, w)
            to_write.get(partial(write, w))

        writes[job.index % k].hold(job.times.t_write, done)

    for d in range(k):
        loop.at(0.0, read, d, iter(jobs[d::k]))
    for c in range(workers):
        loop.at(0.0, to_compute.get, partial(compute, c))
    for w in range(k):
        loop.at(0.0, to_write.get, partial(write, w))
    makespan = loop.run()
    timeline.sort(key=lambda e: (e.start, e.index))
    return ScheduleResult(
        makespan=makespan,
        n_subtasks=len(jobs),
        total_bytes=sum(j.nbytes for j in jobs),
        stage_busy=busy,
        timeline=timeline,
    )
