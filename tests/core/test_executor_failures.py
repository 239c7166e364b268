"""A stage failing mid-compaction reaches the caller under every executor.

``DB._run_compaction`` retries transient I/O errors and quarantines
corrupt inputs, which only works if ``compact_tables`` *returns control*
with the error.  Each test injects one failure into a middle sub-task
and requires the injected error on the calling thread within seconds,
with no compute thread and no unsettled future left behind.  The
compaction runs on a daemon thread joined with a timeout, so a hang
fails the test instead of stalling the run.
"""

import itertools
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import pytest

from repro.core.procedures import ProcedureSpec, compact_tables
from repro.core.subtask import partition_subtasks
from repro.devices import MemStorage
from repro.devices.faults import (
    FaultPlan,
    FaultyStorage,
    TransientIOError,
    corrupt_file,
)
from repro.lsm.ikey import KIND_VALUE, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_format import TableCorruption
from repro.lsm.table_reader import Table

SUBTASK_BYTES = 2048
TIMEOUT_S = 5.0
OPTIONS = Options(
    block_bytes=512, sstable_bytes=8 * 1024, compression="lz77",
    paranoid_checks=False,  # opening a table must not trip over the flipped byte
)

EXECUTORS = {
    "pcp": ProcedureSpec.pcp(subtask_bytes=SUBTASK_BYTES),
    "cppcp2": ProcedureSpec.cppcp(2, subtask_bytes=SUBTASK_BYTES),
    "cppcp2-process": ProcedureSpec.cppcp(
        2, subtask_bytes=SUBTASK_BYTES, backend="process"
    ),
}


def _build(storage, name, keys, seq, tag):
    with storage.create(name) as f:
        builder = TableBuilder(f, OPTIONS)
        for i in keys:
            builder.add(
                encode_internal_key(b"key-%05d" % i, seq, KIND_VALUE),
                b"%s-%d" % (tag, i) * 4,
            )
        builder.finish()


def _open(storage):
    return [Table(storage.open(name), OPTIONS) for name in ("u.sst", "l.sst")]


@pytest.fixture()
def submitted(monkeypatch):
    """Every future a stdlib pool hands out while the test runs."""
    futures = []
    for cls in (ThreadPoolExecutor, ProcessPoolExecutor):
        def submit(self, fn, *args, _submit=cls.submit, **kwargs):
            future = _submit(self, fn, *args, **kwargs)
            futures.append(future)
            return future

        monkeypatch.setattr(cls, "submit", submit)
    return futures


def _inject(stage, inner):
    """Arm ``stage``'s failure in a middle sub-task.

    Returns ``(storage to compact on, tables, expected error, sub-tasks)``.
    """
    subtasks = partition_subtasks(_open(inner), SUBTASK_BYTES)
    assert len(subtasks) >= 12
    middle = len(subtasks) // 2
    if stage == "s2-corrupt":
        handle = subtasks[middle].runs[0].handles[0]
        corrupt_file(inner, "u.sst", handle.offset + 3, mask=0x01)
        return inner, _open(inner), TableCorruption, len(subtasks)
    faulty = FaultyStorage(inner)
    tables = _open(faulty)
    blocks_before = sum(s.num_blocks() for s in subtasks[:middle])
    if stage == "s1-read":
        # One pread per input block, sub-tasks read in order.
        plan = FaultPlan(fail_nth={"read": blocks_before + 1})
    else:
        # Output appends lag the reads by the window; any append this
        # far in lands with sub-tasks written before it and after it.
        plan = FaultPlan(fail_nth={"write": blocks_before // 2 + 1})
    faulty.arm(plan)  # resets the op counters the table opens advanced
    return faulty, tables, TransientIOError, len(subtasks)


@pytest.mark.parametrize("stage", ["s1-read", "s2-corrupt", "s7-write"])
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_stage_failure_returns_control(executor, stage, submitted):
    spec = EXECUTORS[executor]
    inner = MemStorage()
    _build(inner, "u.sst", range(0, 2400, 2), 9, b"new")
    _build(inner, "l.sst", range(0, 2400, 3), 1, b"old")
    storage, tables, expected, n_subtasks = _inject(stage, inner)
    numbers = itertools.count(100)
    outcome = {}

    def compact():
        try:
            compact_tables(
                tables, storage, OPTIONS,
                file_namer=lambda: f"{next(numbers):06d}.sst",
                spec=spec,
            )
            outcome["error"] = None
        except Exception as exc:
            outcome["error"] = exc
            outcome["unsettled"] = sum(not f.done() for f in submitted)

    runner = threading.Thread(target=compact, name="test-compaction", daemon=True)
    runner.start()
    runner.join(TIMEOUT_S)
    assert not runner.is_alive(), (
        f"compact_tables still running {TIMEOUT_S} s after a {stage} failure"
    )
    assert isinstance(outcome["error"], expected), outcome["error"]
    # Mid-run: some sub-tasks were handed to the executor, not all.
    assert 0 < len(submitted) < n_subtasks
    assert outcome["unsettled"] == 0
    leftover = [
        t.name for t in threading.enumerate() if t.name.startswith("pcp-")
    ]
    assert leftover == []
