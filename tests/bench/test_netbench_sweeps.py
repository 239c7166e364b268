"""netbench's sweeps, with the served run replaced by canned results.

Each sweep turns a list of ``run_net_benchmark`` results into the rows
of one ``BENCH_*.json`` payload.  These tests stub the served run, so
they pin that table — which runs a sweep asks for, each row's labels,
keys and values, the throughput ratio, the header — and the CLI's
``--json-out`` file, without starting a server.
"""

import json

import pytest

from repro.bench import netbench
from repro.bench.netbench import NetBenchResult
from repro.core.procedures import ProcedureSpec
from repro.obs import LatencyHistogram

FIGURES = (
    "ops_per_second", "wall_seconds", "p50_ms", "p95_ms", "p99_ms",
    "stall_retries",
)


class _Stub:
    """Stands in for ``run_net_benchmark``: call ``i`` gets figures
    that differ by ``i`` and the STATS snapshot ``stats(i, kwargs)``."""

    def __init__(self, stats=lambda i, kwargs: {}):
        self.stats = stats
        self.calls: list[dict] = []
        self.results: list[NetBenchResult] = []

    def __call__(self, **kwargs) -> NetBenchResult:
        i = len(self.calls)
        self.calls.append(kwargs)
        latency = LatencyHistogram()
        for ms in (1 + i, 2 + i, 10 + 2 * i):
            latency.record(ms / 1e3)
        obs = kwargs.get("obs")
        if obs is not None:
            for _ in range(3):
                obs.events.emit("flush")
        result = NetBenchResult(
            mix=kwargs.get("mix", "a"),
            n_ops=kwargs["n_ops"],
            connections=kwargs["connections"],
            wall_seconds=1.0 + i,
            ops_per_second=50.0 * (i + 2),
            op_counts={},
            stall_retries=i,
            latency=latency,
            server_stats=self.stats(i, kwargs),
            scrapes=4 * i,
            scrape_samples=40 * i,
            client_spans=100 * i,
        )
        self.results.append(result)
        return result

    def figures(self, i: int) -> dict:
        result = self.results[i]
        return {
            "ops_per_second": result.ops_per_second,
            "wall_seconds": result.wall_seconds,
            "p50_ms": result.percentile_ms(50),
            "p95_ms": result.percentile_ms(95),
            "p99_ms": result.percentile_ms(99),
            "stall_retries": result.stall_retries,
        }


@pytest.fixture
def stub(monkeypatch):
    def install(stats=lambda i, kwargs: {}):
        fake = _Stub(stats)
        monkeypatch.setattr(netbench, "run_net_benchmark", fake)
        return fake

    return install


def _scaling_stats(i, kwargs):
    stats = {"db": {"write_stalls": 10 + i}}
    if kwargs["shards"] > 1:
        stats["cluster"] = {
            "shards": [{"shard": s} for s in range(kwargs["shards"])]
        }
    return stats


def test_scaling_rows(stub):
    fake = stub(_scaling_stats)
    table = netbench.run_scaling([1, 2, 4])
    assert [c["shards"] for c in fake.calls] == [1, 2, 4]
    for call in fake.calls:
        assert call["options"] == netbench._stall_bound_options()
        assert call["compaction_spec"] == ProcedureSpec.cppcp(
            2, subtask_bytes=16 * 1024
        )
        assert (call["mix"], call["n_ops"], call["record_count"]) == (
            "a", 4000, 1000,
        )
        assert (call["value_bytes"], call["connections"], call["seed"]) == (
            100, 4, 0,
        )
    runs = table.pop("runs")
    assert table == {
        "benchmark": "netbench-cluster-scaling",
        "mix": "a",
        "n_ops": 4000,
        "record_count": 1000,
        "connections": 4,
        "procedure": "cppcp",
    }
    assert runs == [
        {
            "shards": n,
            **fake.figures(i),
            "write_stalls": 10 + i,
            "per_shard": (
                [{"shard": s} for s in range(n)] if n > 1 else []
            ),
            "speedup_vs_first": (i + 2) / 2,
        }
        for i, n in enumerate([1, 2, 4])
    ]


def _replication_stats(i, kwargs):
    if not kwargs["replicas"]:
        return {}
    return {"repl": {"followers": [{"name": f"f{i}"}]}}


def test_replication_rows(stub):
    fake = stub(_replication_stats)
    table = netbench.run_replication_bench(replicas=3, n_ops=900)
    assert [(c["replicas"], c["repl_acks"]) for c in fake.calls] == [
        (0, 0), (3, 0), (3, 1), (3, "majority"),
    ]
    assert all("options" not in c for c in fake.calls)
    runs = table.pop("runs")
    assert table == {
        "benchmark": "netbench-replication",
        "mix": "a",
        "n_ops": 900,
        "record_count": 1000,
        "connections": 4,
        "replicas": 3,
    }
    levels = ["baseline", "0", "1", "majority"]
    assert runs == [
        {
            "replicas": 3 if i else 0,
            "ack_level": level,
            **fake.figures(i),
            "followers": [{"name": f"f{i}"}] if i else [],
            "throughput_vs_baseline": (i + 2) / 2,
        }
        for i, level in enumerate(levels)
    ]


def test_replication_custom_levels(stub):
    fake = stub()
    table = netbench.run_replication_bench(ack_levels=[2])
    assert [(c["replicas"], c["repl_acks"]) for c in fake.calls] == [
        (0, 0), (2, 2),
    ]
    assert [r["ack_level"] for r in table["runs"]] == ["baseline", "2"]


def test_obs_overhead_rows(stub):
    fake = stub()
    table = netbench.run_obs_overhead(scrape_interval_s=0.5)
    off, metrics, traced = fake.calls
    for absent in ("scrape_interval_s", "obs", "trace_clients"):
        assert absent not in off
    assert metrics["scrape_interval_s"] == 0.5
    assert "obs" not in metrics and "trace_clients" not in metrics
    assert traced["scrape_interval_s"] == 0.5
    assert traced["trace_clients"] is True
    assert traced["obs"].tracer.enabled and traced["obs"].events.enabled
    runs = table.pop("runs")
    assert table == {
        "benchmark": "netbench-obs-overhead",
        "mix": "a",
        "n_ops": 4000,
        "record_count": 1000,
        "connections": 4,
        "scrape_interval_s": 0.5,
    }
    assert runs == [
        {
            "mode": mode,
            **fake.figures(i),
            "scrapes": 4 * i,
            "scrape_samples": 40 * i,
            "client_spans": 100 * i,
            "events_emitted": 3 if mode == "metrics+tracing" else 0,
            "throughput_vs_off": (i + 2) / 2,
        }
        for i, mode in enumerate(("off", "metrics", "metrics+tracing"))
    ]


def _policy_stats(i, kwargs):
    policy = kwargs["options"].compaction_policy
    db = {"write_stalls": i, "compactions": 5 + i, "total_bytes": 1000 * i}
    if policy != "leveled":  # the server's canonical spec, when it says
        db["compaction_policy"] = f"canonical({policy})"
    counters = {}
    if i:
        counters = {
            "wal.bytes": 400 * i,
            "db.flush_bytes": 300 * i,
            "compaction.output_bytes": 500 * i,
        }
    return {"db": db, "engine": {"counters": counters}}


def test_policy_rows(stub):
    fake = stub(_policy_stats)
    table = netbench.run_policy_sweep(record_count=100, value_bytes=84)
    policies = ["leveled", "tiered:runs=4", "lazy-leveled:runs=4"]
    shapes = [("write-heavy", "w", "zipfian"), ("uniform", "a", "uniform")]
    grid = [(shape, policy) for shape in shapes for policy in policies]
    for call, ((_, mix, distribution), policy) in zip(fake.calls, grid):
        assert (call["mix"], call["distribution"]) == (mix, distribution)
        assert call["options"] == netbench._policy_sweep_options(policy)
        assert call["compaction_spec"] == ProcedureSpec.scp()
    assert len(fake.calls) == len(grid)
    runs = table.pop("runs")
    assert table == {
        "benchmark": "netbench-policy-sweep",
        "n_ops": 6000,
        "record_count": 100,
        "value_bytes": 84,
        "connections": 4,
        "procedure": "scp",
        "policies": policies,
    }
    live = 100 * (16 + 84)
    for i, (row, ((name, mix, distribution), policy)) in enumerate(
        zip(runs, grid)
    ):
        figures = fake.figures(i)
        logical = 400 * i or 1
        written = 800 * i
        expected = {
            "workload": name,
            "mix": mix,
            "distribution": distribution,
            "policy": (
                policy if policy == "leveled" else f"canonical({policy})"
            ),
            **{k: figures[k] for k in FIGURES if k != "p95_ms"},
            "write_stalls": i,
            "compactions": 5 + i,
            "logical_bytes": logical,
            "sst_bytes_written": written,
            "write_amp": written / logical,
            "final_table_bytes": 1000 * i,
            "space_amp": 1000 * i / live,
        }
        # p95_ms is the one key a policy row may carry beyond these.
        if "p95_ms" in row:
            expected["p95_ms"] = figures["p95_ms"]
        assert row == expected


@pytest.mark.parametrize(
    "flags, sweep, stats",
    [
        (["--scaling", "1,2"], "scaling", _scaling_stats),
        (["--replication-sweep"], "replication", _replication_stats),
        (["--obs-overhead"], "obs", lambda i, kwargs: {}),
        (["--policy-sweep"], "policy", _policy_stats),
    ],
)
def test_cli_prints_one_line_per_row_and_writes_the_table(
    stub, tmp_path, capsys, flags, sweep, stats
):
    sized = dict(n_ops=600, record_count=300, connections=2)
    stub(stats)
    if sweep == "scaling":
        table = netbench.run_scaling([1, 2], **sized)
    elif sweep == "replication":
        table = netbench.run_replication_bench(**sized)
    elif sweep == "obs":
        table = netbench.run_obs_overhead(**sized)
    else:
        table = netbench.run_policy_sweep(**sized)
    capsys.readouterr()
    stub(stats)
    out = tmp_path / "bench.json"
    argv = flags + [
        "--ops", "600", "--records", "300", "--connections", "2",
        "--json-out", str(out),
    ]
    assert netbench.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(table["runs"]) + 1
    assert lines[-1] == f"wrote {out}"
    assert json.loads(out.read_text()) == json.loads(json.dumps(table))
