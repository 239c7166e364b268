"""Tests for the bench harness: profiling, observer, runner, report."""

import pytest

from repro.bench.observer import VirtualClock
from repro.bench.profiling import breakdown3, profile_steps_model
from repro.bench.report import format_fractions, format_table, render_series
from repro.bench.runner import (
    SCALE,
    run_insert_workload,
    scaled_device,
    scaled_options,
)
from repro.core import CostModel, ProcedureSpec, profile_steps_real
from repro.devices import make_device

MB = 1 << 20


class TestProfiling:
    def test_model_breakdown_sums_to_one(self):
        times = profile_steps_model()
        frac = breakdown3(times)
        assert sum(frac.values()) == pytest.approx(1.0)

    def test_model_devices_differ(self):
        hdd = profile_steps_model(device="hdd")
        ssd = profile_steps_model(device="ssd")
        assert hdd.read > ssd.read
        assert hdd.compute_total == ssd.compute_total  # CPU is CPU

    def test_real_profile_runs_and_orders_cpu_steps(self):
        profile = profile_steps_real(subtask_bytes=64 * 1024, repeats=1)
        t = profile.times
        assert profile.input_bytes > 0
        assert profile.entries > 0
        # The real pure-Python implementation shows the same CPU-step
        # ordering the paper reports: compress is the costliest CPU
        # step and decompress is cheaper than compress.
        cpu = {
            "checksum": t.checksum,
            "decompress": t.decompress,
            "merge": t.merge,
            "compress": t.compress,
            "rechecksum": t.rechecksum,
        }
        assert max(cpu, key=cpu.get) in ("compress", "merge")
        assert t.decompress < t.compress

    def test_real_profile_writes_the_merge_through_the_sink(self):
        """S7 is the engine's: output tables, read back, hold the merge
        of the two interleaved inputs (even keys upper, odd keys lower)."""
        from repro.core.costmodel import DEFAULT_KV_BYTES
        from repro.lsm import Options, Table
        from repro.workload.generators import ValueGenerator

        profile = profile_steps_real(subtask_bytes=32 * 1024, repeats=2)
        rows = [
            row for meta in profile.outputs
            for row in Table(profile.storage.open(meta.name), Options())
        ]
        n = 2 * max(16, 32 * 1024 // DEFAULT_KV_BYTES)
        values = ValueGenerator(DEFAULT_KV_BYTES - 16)
        assert [(ikey[:-8], value) for ikey, value in rows] == [
            (b"%016d" % i, values.value_for(i)) for i in range(n)
        ]
        assert len(rows) == profile.entries

    def test_real_profile_null_codec_cheapens_compress(self):
        lz = profile_steps_real(subtask_bytes=32 * 1024, compression="lz77")
        null = profile_steps_real(subtask_bytes=32 * 1024, compression="null")
        assert null.times.compress < lz.times.compress

    def test_real_profile_splices_nothing(self):
        """Every input block is merged and rebuilt, so the profiled S4
        is the cost of a full merge, not of a splice."""
        stats = profile_steps_real(subtask_bytes=32 * 1024).stats
        assert stats.passthrough_blocks == stats.reused_blocks == 0
        assert stats.n_subtasks >= 1


class TestVirtualClock:
    def _clock(self, spec=None):
        dev = make_device("ssd")
        return VirtualClock(
            spec=spec or ProcedureSpec.pcp(subtask_bytes=32 * 1024),
            read_device=dev,
            write_device=dev,
        )

    def test_write_accumulates_foreground(self):
        clock = self._clock()
        from repro.lsm import WriteBatch

        batch = WriteBatch().put(b"k", b"v")
        clock.on_write(batch, wal_bytes=64)
        assert clock.foreground_s > 0
        assert clock.compaction_s == 0

    def test_flush_accounts_build_and_write(self):
        clock = self._clock()

        class Meta:
            file_size = 64 * 1024

        clock.on_flush(Meta())
        assert clock.flush_s > 0

    def test_trivial_move_cheap(self):
        clock = self._clock()
        clock.on_trivial_move(None)
        assert clock.maintenance_s == clock.trivial_move_s

    def test_compaction_uses_procedure_schedule(self):
        class FakeSub:
            def __init__(self, n):
                self._n = n

            def input_bytes(self):
                return self._n

        subs = [FakeSub(32 * 1024) for _ in range(8)]
        scp_clock = self._clock(ProcedureSpec.scp(subtask_bytes=32 * 1024))
        pcp_clock = self._clock(ProcedureSpec.pcp(subtask_bytes=32 * 1024))
        scp_clock.on_compaction(None, subs, None)
        pcp_clock.on_compaction(None, subs, None)
        assert pcp_clock.compaction_s < scp_clock.compaction_s
        assert scp_clock.compaction_input_bytes == 8 * 32 * 1024
        assert scp_clock.n_compactions == 1

    def test_iops_and_bandwidth_guards(self):
        clock = self._clock()
        assert clock.iops(100) == 0.0
        assert clock.compaction_bandwidth() == 0.0


class TestRunner:
    def test_scaled_device_preserves_stage_ratios(self):
        """A 1/SCALE sub-task on the scaled device costs ~1/SCALE of a
        full sub-task on the calibrated preset."""
        cm = CostModel()
        for kind in ("hdd", "ssd"):
            full = cm.step_times(MB, cm.entries_for(MB),
                                 make_device(kind), make_device(kind))
            small = cm.step_times(MB // SCALE, cm.entries_for(MB // SCALE),
                                  scaled_device(kind), scaled_device(kind))
            assert small.read * SCALE == pytest.approx(full.read, rel=0.05)
            assert small.write * SCALE == pytest.approx(full.write, rel=0.05)

    def test_scaled_options_are_valid(self):
        scaled_options().validate()

    def test_run_produces_consistent_result(self):
        result = run_insert_workload(
            2000, ProcedureSpec.pcp(subtask_bytes=32 * 1024), device="ssd"
        )
        assert result.n_ops == 2000
        assert result.virtual_seconds == pytest.approx(
            result.foreground_seconds
            + result.flush_seconds
            + result.compaction_seconds
            + result.maintenance_seconds
        )
        assert result.iops > 0
        assert result.n_flushes > 0
        assert "pcp" in result.summary()

    def test_runs_are_deterministic(self):
        spec = ProcedureSpec.scp(subtask_bytes=32 * 1024)
        a = run_insert_workload(1500, spec, device="hdd", seed=5)
        b = run_insert_workload(1500, spec, device="hdd", seed=5)
        assert a.virtual_seconds == b.virtual_seconds
        assert a.n_compactions == b.n_compactions

    def test_pcp_beats_scp_when_compactions_happen(self):
        scp = run_insert_workload(
            6000, ProcedureSpec.scp(subtask_bytes=32 * 1024), device="ssd"
        )
        pcp = run_insert_workload(
            6000, ProcedureSpec.pcp(subtask_bytes=32 * 1024), device="ssd"
        )
        assert scp.n_compactions > 0
        assert pcp.compaction_seconds < scp.compaction_seconds
        assert pcp.iops > scp.iops


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["name", "x"], [["alpha", 1.5], ["b", 22.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) or True for line in lines)

    def test_format_table_with_title(self):
        out = format_table(["a"], [[1]], title="T")
        assert out.startswith("T\n")

    def test_format_fractions(self):
        s = format_fractions({"read": 0.416, "write": 0.2})
        assert "read 41.6%" in s and "write 20.0%" in s

    def test_render_series(self):
        s = render_series("bw", [1, 2], [10.0, 20.0])
        assert s.startswith("bw:") and "1:10.0" in s


class TestExperimentResult:
    def test_column_and_row_map(self):
        from repro.bench.experiments.base import ExperimentResult

        r = ExperimentResult("t", ["k", "v"], [["a", 1], ["b", 2]])
        assert r.column("v") == [1, 2]
        assert r.row_map("k")["b"] == ["b", 2]
        assert "== t ==" in r.render()

    def test_fast_experiments_render(self):
        from repro.bench.experiments import fig05, fig08, fig09

        for result in (fig05.run(), fig08.run(), fig09.run()):
            text = result.render()
            assert "==" in text and len(text.splitlines()) > 3


class TestGantt:
    def test_render_scp_and_pipeline(self):
        from repro.bench.gantt import render_gantt
        from repro.core import PipelineConfig, SimJob, StageTimes
        from repro.core.backends.simbackend import simulate_pipeline, simulate_scp

        jobs = [SimJob(i, StageTimes(0.004, 0.025, 0.012), 1 << 20) for i in range(4)]
        scp_chart = render_gantt(simulate_scp(jobs))
        assert "read" in scp_chart and "write" in scp_chart
        assert "busy:" in scp_chart
        pipe_chart = render_gantt(
            simulate_pipeline(jobs, PipelineConfig(n_devices=2))
        )
        # Multiple read workers get per-worker rows.
        assert "read[0]" in pipe_chart and "read[1]" in pipe_chart

    def test_render_empty(self):
        from repro.bench.gantt import render_gantt
        from repro.core.backends.simbackend import simulate_scp

        assert render_gantt(simulate_scp([])) == "(empty schedule)"

    def test_width_respected(self):
        from repro.bench.gantt import render_gantt
        from repro.core import SimJob, StageTimes
        from repro.core.backends.simbackend import simulate_scp

        jobs = [SimJob(i, StageTimes(1, 1, 1), 1) for i in range(3)]
        chart = render_gantt(simulate_scp(jobs), width=40)
        for line in chart.splitlines()[:3]:
            assert len(line) <= 40 + 14  # label + bar
