"""Ablations of the design choices DESIGN.md calls out.

* pipeline depth — the paper argues (§III-B) for exactly three stages
  rather than splitting S2-S6 across CPUs; we model a deeper split as a
  chain of unevenly-sized compute stages with a per-hop hand-off cost.
* queue depth — the bounded inter-stage buffer controls fill/drain
  overhead (the ~10 % ideal-vs-practical gap).
* codec choice — moving CPU cost (null / lz77 / zlib-like) shifts the
  CPU-I/O balance and with it the PCP gain and the S-PPCP knee.
* shared vs independent I/O servers — the Eq 2 assumption.
"""

from __future__ import annotations

from ...core.backends.simbackend import PipelineConfig, SimJob, simulate_pipeline
from ...core.costmodel import CostModel
from ...core.procedures import ProcedureSpec, simulate_compaction, uniform_subtasks
from ...devices import make_device
from .base import ExperimentResult

__all__ = [
    "run_codec_ablation",
    "run_depth_ablation",
    "run_distribution_ablation",
    "run_queue_ablation",
    "run_shared_io_ablation",
]

MB = 1 << 20


# --------------------------------------------------------------- depth
def _simulate_deep_pipeline(
    jobs: list[SimJob],
    compute_splits: list[float],
    hop_overhead_s: float,
    queue_capacity: int = 2,
) -> float:
    """A pipeline whose compute stage is split into serial sub-stages.

    Each sub-stage gets ``split`` of the compute time plus a hand-off
    cost per sub-task; stages run on distinct workers connected by
    bounded queues — the §III-B alternative the paper rejects.
    Returns the makespan.

    A line of one-worker stages (read, the sub-stages, write) with
    bounded queues needs no event loop: sub-task *i* starts a stage once
    it left the one before and the stage let go of *i - 1*; it leaves
    once served and once the next stage has taken *i - queue_capacity*,
    which frees its slot in the queue between them.
    """
    starts: list[list[float]] = [[] for _ in range(len(compute_splits) + 2)]
    free = [0.0] * len(starts)
    for i, job in enumerate(jobs):
        t = job.times
        service = [t.t_read,
                   *(t.t_compute * frac + hop_overhead_s for frac in compute_splits),
                   t.t_write]
        ready = 0.0
        for s, seconds in enumerate(service):
            start = max(ready, free[s])
            leave = start + seconds
            if s + 1 < len(starts) and i >= queue_capacity:
                leave = max(leave, starts[s + 1][i - queue_capacity])
            starts[s].append(start)
            free[s] = ready = leave
    return free[-1]


def run_depth_ablation(
    n_subtasks: int = 16,
    subtask_bytes: int = MB,
    hop_overhead_s: float = 0.0015,
) -> ExperimentResult:
    """§III-B/C's actual choice: given k cores for S2-S6, *widen* the
    single compute stage (C-PPCP) rather than *deepen* the pipeline.

    A deep split's throughput is bounded by its largest indivisible
    step (S5 compress) plus a hand-off cost per hop, and the uneven
    step times leave most sub-stages idle; C-PPCP gives each core a
    whole sub-task's compute, which divides perfectly.
    """
    cm = CostModel()
    dev = make_device("ssd")
    entries = cm.entries_for(subtask_bytes)
    steps = cm.step_times(subtask_bytes, entries, dev, dev)
    jobs = [SimJob(i, steps.stages(), subtask_bytes) for i in range(n_subtasks)]
    total_bytes = n_subtasks * subtask_bytes

    base = simulate_pipeline(jobs, PipelineConfig(queue_capacity=2))
    base_bw = total_bytes / base.makespan
    rows = [["3-stage pcp (1 core)", 1, base_bw / 1e6, 1.0]]

    c = steps.compute_total
    deep_splits = {
        "2-deep even split": [0.5, 0.5],
        "3-deep even split": [1 / 3, 1 / 3, 1 / 3],
        "5-deep per-step": [
            steps.checksum / c, steps.decompress / c, steps.merge / c,
            steps.compress / c, steps.rechecksum / c,
        ],
    }
    wide = {2: "c-ppcp k=2", 3: "c-ppcp k=3", 5: "c-ppcp k=5"}
    for (label, fracs), (k, wlabel) in zip(deep_splits.items(), wide.items()):
        deep_makespan = _simulate_deep_pipeline(jobs, fracs, hop_overhead_s)
        deep_bw = total_bytes / deep_makespan
        rows.append([label, k, deep_bw / 1e6, deep_bw / base_bw])
        wide_res = simulate_pipeline(
            jobs, PipelineConfig(compute_workers=k, queue_capacity=2 * k)
        )
        wide_bw = total_bytes / wide_res.makespan
        rows.append([wlabel, k, wide_bw / 1e6, wide_bw / base_bw])
    return ExperimentResult(
        name="Ablation: deepen the pipeline vs widen the compute stage "
        "(SSD, 1 MB sub-tasks, equal core budget)",
        headers=["design", "cores", "bw MB/s", "vs 1-core pcp"],
        rows=rows,
        notes=(
            "paper §III-B/C: at the same core count, C-PPCP's single wide "
            "stage beats splitting S2-S6 into sub-stages (uneven step "
            "times + per-hop hand-off cost bound the deep design)"
        ),
    )


# --------------------------------------------------------------- queue
def run_queue_ablation(
    n_subtasks: int = 24, subtask_bytes: int = MB
) -> ExperimentResult:
    """Bounded inter-stage buffering under sub-task size *jitter*.

    With perfectly uniform sub-tasks the bottleneck stage is never
    starved and queue depth is irrelevant; real compactions produce
    ragged sub-tasks (block-grid alignment, key skew), and then a
    deeper buffer absorbs the variance.  Sizes here cycle through
    1/4x..2x of the nominal sub-task.
    """
    cm = CostModel()
    pattern = (
        subtask_bytes // 4,
        2 * subtask_bytes,
        subtask_bytes,
        subtask_bytes // 2,
        2 * subtask_bytes,
        subtask_bytes // 4,
    )
    sizes = [
        (s, cm.entries_for(s)) for s in
        (pattern[i % len(pattern)] for i in range(n_subtasks))
    ]
    rows = []
    base = None
    for qcap in (1, 2, 4, 8):
        spec = ProcedureSpec.pcp(subtask_bytes=subtask_bytes, queue_capacity=qcap)
        bw = simulate_compaction(sizes, spec, cm, make_device("ssd"), None).bandwidth()
        if base is None:
            base = bw
        rows.append([qcap, bw / 1e6, bw / base])
    return ExperimentResult(
        name="Ablation: inter-stage queue capacity (SSD, ragged sub-tasks)",
        headers=["queue cap", "bw MB/s", "vs cap=1"],
        rows=rows,
        notes="deeper buffering absorbs sub-task jitter, with diminishing returns",
    )


# --------------------------------------------------------------- codec
def run_codec_ablation(
    n_subtasks: int = 16, subtask_bytes: int = MB
) -> ExperimentResult:
    """Codec cost scales move the CPU/I-O balance.

    `null` zeroes S3/S5 (I/O-bound even on SSD: little PCP gain beyond
    overlapping reads with writes); heavier codecs deepen the CPU
    bottleneck and raise S-PPCP's saturation k*.
    """
    from ...core.analytical import classify, sppcp_saturation_k

    rows = []
    for label, comp_scale in (("null", 0.0), ("lz77 (default)", 1.0),
                              ("zlib-like 2x", 2.0)):
        cm = CostModel(
            compress_s_per_byte=CostModel().compress_s_per_byte * comp_scale,
            decompress_s_per_byte=CostModel().decompress_s_per_byte * comp_scale,
        )
        dev = make_device("ssd")
        times = cm.step_times(subtask_bytes, cm.entries_for(subtask_bytes), dev, dev)
        sizes = uniform_subtasks(n_subtasks * subtask_bytes, subtask_bytes)
        scp = simulate_compaction(
            sizes, ProcedureSpec.scp(subtask_bytes=subtask_bytes), cm,
            make_device("ssd"), None,
        ).bandwidth()
        pcp = simulate_compaction(
            sizes, ProcedureSpec.pcp(subtask_bytes=subtask_bytes), cm,
            make_device("ssd"), None,
        ).bandwidth()
        rows.append(
            [label, classify(times), scp / 1e6, pcp / 1e6, pcp / scp,
             sppcp_saturation_k(times) if times.compute_total > 0 else 0]
        )
    return ExperimentResult(
        name="Ablation: codec CPU cost (SSD)",
        headers=["codec", "bound", "scp MB/s", "pcp MB/s", "speedup", "sppcp k*"],
        rows=rows,
        notes="compression cost controls which resource bounds the pipeline",
    )


# ----------------------------------------------------------- shared io
def run_shared_io_ablation(
    n_subtasks: int = 16, subtask_bytes: int = MB
) -> ExperimentResult:
    cm = CostModel()
    sizes = uniform_subtasks(n_subtasks * subtask_bytes, subtask_bytes)
    rows = []
    for device in ("hdd", "ssd"):
        for shared in (False, True):
            spec = ProcedureSpec.pcp(subtask_bytes=subtask_bytes, shared_io=shared)
            dev = make_device(device)
            bw = simulate_compaction(sizes, spec, cm, dev, dev).bandwidth()
            rows.append([f"{device} shared={shared}", bw / 1e6])
    return ExperimentResult(
        name="Ablation: Eq 2's independent read/write servers vs one device",
        headers=["case", "pcp bw MB/s"],
        rows=rows,
        notes=(
            "Eq 2 treats t1 and t7 as parallel; with one contended server "
            "the bottleneck becomes t1+t7 — the realistic HDD case"
        ),
    )


# -------------------------------------------------------- distribution
def run_distribution_ablation(n: int = 8000) -> ExperimentResult:
    """Key-arrival order decides how much *real* merging compaction does.

    Sequential loads produce non-overlapping runs that LevelDB (and we)
    move down without reading — SCP vs PCP is then irrelevant; uniform
    and zipfian arrivals overlap every flush and pay full merges, which
    is where the pipeline earns its keep.  (The paper's insert-only
    workloads are key-random; this ablation shows why that matters.)
    """
    from ...core.procedures import ProcedureSpec
    from ..runner import run_insert_workload, scaled_options

    rows = []
    for dist in ("sequential", "uniform", "zipfian"):
        scp = run_insert_workload(
            n, ProcedureSpec.scp(subtask_bytes=32 * 1024),
            device="ssd", options=scaled_options(), distribution=dist,
        )
        pcp = run_insert_workload(
            n, ProcedureSpec.pcp(subtask_bytes=32 * 1024),
            device="ssd", options=scaled_options(), distribution=dist,
        )
        rows.append(
            [
                dist,
                scp.n_compactions,
                scp.compaction_input_bytes / 1e6,
                scp.iops,
                pcp.iops,
                pcp.iops / scp.iops if scp.iops else 0.0,
            ]
        )
    return ExperimentResult(
        name="Ablation: key-arrival distribution (SSD, insert-only)",
        headers=["distribution", "merges", "merged MB", "iops scp",
                 "iops pcp", "iops x"],
        rows=rows,
        notes=(
            "sequential loads trivially move files (no merge work, no "
            "PCP gain); random arrivals pay full merges and benefit"
        ),
    )
