"""`repro bench chaos`: the SLO-gated soak, as a library and from the CLI."""

import json

from repro.bench.chaos import ChaosBenchConfig, run_chaos, write_report
from repro.bench.serve import ServeConfig
from repro.resilience import ChaosConfig, RecoveryPolicy

from tests.test_cli import run_cli

FAST_SOAK = dict(
    serve=ServeConfig(
        clients=2, ops=32, seed=7, capacity=64, io_micros=20.0,
        max_inflight=16, op_deadline_ms=500.0,
    ),
    chaos=ChaosConfig(rate=0.5, burst=2, seed=7),
    recovery=RecoveryPolicy(backoff_s=0.001, jitter=0.25),
    healer_interval=0.01,
    soak_ops=60,
    min_recoveries=1,
    soak_seconds=30.0,
    settle_seconds=10.0,
)


class TestRunChaos:
    def test_soak_meets_the_slo_gate(self, tmp_path):
        out = tmp_path / "BENCH_chaos.json"
        report = run_chaos(ChaosBenchConfig(out=str(out), **FAST_SOAK))
        write_report(report, str(out))
        assert report["benchmark"] == "chaos"
        # The acceptance gate of the CI chaos-soak-smoke job.
        assert report["end_state"]["consistent"]
        assert report["end_state"]["quarantined"] == []
        assert report["end_state"]["accounting_ok"]
        assert report["end_state"]["drain_errors"] == []
        assert report["healthz"]["status"] == 200
        assert report["healer"]["recoveries"] >= 1
        assert report["chaos"]["strikes"] >= 1
        assert report["chaos"]["faults_injected"] >= 1
        assert report["latency_ms"]["p99_ms"] >= report["latency_ms"]["p50_ms"]
        assert report["healer"]["mttr_ms"]["count"] >= 1
        assert "total_transitions" in report["breakers"]
        # Round-trips as JSON, and the config is replayable from it.
        persisted = json.loads(out.read_text())
        assert persisted["config"]["seed"] == 7
        assert persisted["config"]["chaos_rate"] == 0.5
        assert persisted["config"]["op_deadline_ms"] == 500.0


class TestChaosCLI:
    def test_bench_chaos_prints_headline_and_exits_zero(self, tmp_path):
        out_path = tmp_path / "BENCH_chaos.json"
        code, text = run_cli(
            "bench",
            "chaos",
            "--clients",
            "2",
            "--ops",
            "32",
            "--seed",
            "7",
            "--io-micros",
            "20",
            "--chaos-rate",
            "0.5",
            "--chaos-burst",
            "2",
            "--healer-interval",
            "0.01",
            "--soak-ops",
            "60",
            "--soak-seconds",
            "30",
            "--settle-seconds",
            "10",
            "--out",
            str(out_path),
        )
        assert code == 0, text
        assert "chaos soak" in text
        assert "healer:" in text
        assert "breakers:" in text
        assert "healthz 200" in text
        assert out_path.exists()

    def test_bench_serve_rejects_chaos_flags(self, tmp_path):
        code, text = run_cli(
            "bench", "serve", "--chaos-rate", "0.5", "--ops", "8",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "bench chaos" in text

    def test_bad_chaos_point_rejected_at_parse_time(self):
        import pytest

        with pytest.raises(SystemExit):
            run_cli("bench", "chaos", "--chaos-crash-points", "asr.apply.bogus")
