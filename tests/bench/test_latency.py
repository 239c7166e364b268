"""Tests for per-operation latency accounting (write pauses)."""


from repro.bench.runner import SystemRunResult, run_insert_workload
from repro.core import ProcedureSpec


class TestLatencyResult:
    def _result(self, values):
        return SystemRunResult(
            n_ops=len(values), spec=ProcedureSpec.scp(), device="ssd",
            virtual_seconds=0.0, foreground_seconds=0.0, flush_seconds=0.0,
            compaction_seconds=0.0, maintenance_seconds=0.0, iops=0.0,
            compaction_bandwidth=0.0, compaction_input_bytes=0,
            n_compactions=0, n_flushes=0, levels=[], latencies_us=values,
        )

    def test_percentiles(self):
        r = self._result([float(i) for i in range(100)])
        assert r.percentile(50) == 50.0
        assert r.percentile(99) == 99.0
        assert r.percentile(0) == 0.0

    def test_percentile_empty(self):
        assert self._result([]).percentile(99) == 0.0

    def test_mean_max(self):
        r = self._result([1.0, 3.0])
        assert r.mean_us == 2.0
        assert r.max_us == 3.0

    def test_stalled_ops(self):
        r = self._result([10.0, 2000.0, 500.0, 5000.0])
        assert r.stalled_ops(1000.0) == 2


class TestLatencyWorkload:
    def test_every_op_recorded(self):
        result = run_insert_workload(
            1000, ProcedureSpec.scp(subtask_bytes=32 * 1024)
        )
        assert len(result.latencies_us) == 1000
        assert all(v > 0 for v in result.latencies_us)

    def test_tail_is_compaction_pause(self):
        """Most ops are cheap; a handful carry flush/compaction pauses
        orders of magnitude above the median."""
        result = run_insert_workload(
            6000, ProcedureSpec.scp(subtask_bytes=32 * 1024)
        )
        p50 = result.percentile(50)
        assert result.max_us > 100 * p50

    def test_pcp_shortens_worst_pause(self):
        scp = run_insert_workload(
            8000, ProcedureSpec.scp(subtask_bytes=32 * 1024), seed=1
        )
        pcp = run_insert_workload(
            8000, ProcedureSpec.pcp(subtask_bytes=32 * 1024), seed=1
        )
        assert pcp.max_us < scp.max_us
        # Total time conserved: sum of latencies ~ the virtual clock.
        assert sum(pcp.latencies_us) < sum(scp.latencies_us)

    def test_deterministic(self):
        a = run_insert_workload(1500, ProcedureSpec.scp(subtask_bytes=32 * 1024))
        b = run_insert_workload(1500, ProcedureSpec.scp(subtask_bytes=32 * 1024))
        assert a.latencies_us == b.latencies_us
