#!/usr/bin/env python
"""Compare SCP, PCP, S-PPCP, and C-PPCP on one compaction.

Builds two real SSTables (an upper and a lower component), partitions
the merge into sub-tasks, and runs every procedure both ways:

* *functionally* (real threads, real bytes) — verifying all four
  produce bit-identical output, the property that legalises pipelining;
* *in virtual time* (the pipeline schedule loop with the calibrated
  HDD/SSD models) — showing the bandwidth ranking the paper measures.

Run:  python examples/compaction_comparison.py
"""

import itertools

from repro.bench.report import format_table
from repro.core import (
    CostModel,
    ProcedureSpec,
    classify,
    compact_tables,
    pcp_speedup,
    simulate_compaction,
)
from repro.devices import MemStorage, make_device
from repro.lsm import KIND_VALUE, Options, Table, TableBuilder, encode_internal_key

MB = 1 << 20


def build_inputs(storage, options):
    """An upper-level table shadowing half the keys of a lower one."""

    def build(name, rng, seq, tag):
        with storage.create(name) as f:
            builder = TableBuilder(f, options)
            for i in rng:
                key = encode_internal_key(b"key-%07d" % i, seq, KIND_VALUE)
                builder.add(key, b"%s-value-%d" % (tag, i) * 3)
            builder.finish()
        return Table(storage.open(name), options)

    upper = build("upper.sst", range(0, 40_000, 2), seq=9, tag=b"new")
    lower = build("lower.sst", range(0, 40_000, 3), seq=1, tag=b"old")
    return upper, lower


def main() -> None:
    options = Options(block_bytes=4096, sstable_bytes=256 * 1024,
                      compression="lz77")
    storage = MemStorage()
    upper, lower = build_inputs(storage, options)
    subtask_bytes = 64 * 1024

    specs = {
        "scp": ProcedureSpec.scp(subtask_bytes=subtask_bytes),
        "pcp": ProcedureSpec.pcp(subtask_bytes=subtask_bytes),
        "s-ppcp k=3": ProcedureSpec.sppcp(k=3, subtask_bytes=subtask_bytes),
        "c-ppcp k=3": ProcedureSpec.cppcp(k=3, subtask_bytes=subtask_bytes,
                                          queue_capacity=6),
    }

    # ---- functional runs: identical output, wall-clock stats ---------
    print("functional execution (real threads, in-memory files):")
    outputs_bytes = {}
    rows = []
    for label, spec in specs.items():
        counter = itertools.count(1)
        outputs, stats, subtasks = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda lbl=label: f"{lbl}-{next(counter):04d}.sst",
            spec=spec,
        )
        outputs_bytes[label] = [storage.open(m.name).read_all() for m in outputs]
        rows.append(
            [label, len(subtasks), len(outputs),
             stats.input_bytes / MB, stats.wall_seconds,
             stats.bandwidth() / 1e6]
        )
    print(format_table(
        ["procedure", "subtasks", "outputs", "in MB", "wall s", "MB/s"], rows
    ))
    reference = outputs_bytes["scp"]
    for label, blobs in outputs_bytes.items():
        assert blobs == reference, f"{label} output differs!"
    print("-> all four procedures produced bit-identical SSTables\n")
    print("   (wall-clock speedups are GIL-bound; see the virtual-time")
    print("    comparison below for the schedule-level behaviour)\n")

    # ---- virtual-time runs: the paper's bandwidth ranking -------------
    cm = CostModel()
    from repro.core import partition_subtasks

    subtasks = partition_subtasks([upper, lower], subtask_bytes)
    sizes = [(s.input_bytes(), cm.entries_for(s.input_bytes()))
             for s in subtasks]
    print("virtual-time schedules (calibrated device models):")
    for device in ("hdd", "ssd"):
        probe = make_device(device)
        times = cm.step_times(subtask_bytes, cm.entries_for(subtask_bytes),
                              probe, probe)
        print(f"\n{device}: pipeline is {classify(times)}; "
              f"ideal PCP speedup (Eq 3) = {pcp_speedup(times):.2f}")
        rows = []
        base = None
        for label, spec in specs.items():
            dev = make_device(device)
            result = simulate_compaction(sizes, spec, cm, dev, dev)
            bw = result.bandwidth()
            if base is None:
                base = bw
            rows.append([label, result.makespan, bw / 1e6, bw / base])
        print(format_table(
            ["procedure", "makespan s", "MB/s", "vs scp"], rows
        ))



if __name__ == "__main__":
    main()
