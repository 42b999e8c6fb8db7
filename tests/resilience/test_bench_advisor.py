"""`repro bench advisor`: the self-tuning soak, as a library and from the CLI."""

import json

from repro.bench.advisor import AdvisorBenchConfig, run_advisor, write_report
from repro.bench.serve import ServeConfig

from tests.test_cli import run_cli

# The serve-world defaults are load-bearing: the soak's phase mixes were
# chosen against the default profile's cost landscape (see the module
# docstring of repro.bench.advisor).  Only the wall-clock cap shrinks.
FAST_SOAK = AdvisorBenchConfig(
    serve=ServeConfig(seed=7, io_micros=20.0),
    phase_seconds=15.0,
)


class TestRunAdvisor:
    def test_soak_converges_and_proves_the_epoch(self, tmp_path):
        out = tmp_path / "BENCH_advisor.json"
        report = run_advisor(
            AdvisorBenchConfig(**{**FAST_SOAK.__dict__, "out": str(out)})
        )
        write_report(report, str(out))
        assert report["benchmark"] == "advisor"
        # The acceptance gates of the CI advisor-smoke job.
        assert report["ok"], report
        assert all(phase["converged"] for phase in report["phases"])
        assert all(
            phase["decisive_sweeps"] <= FAST_SOAK.max_decisive_sweeps
            for phase in report["phases"]
            if "decisive_sweeps" in phase
        )
        assert report["rollback"]["ok"]
        assert report["rollback"]["epoch_before"] == report["rollback"]["epoch_after"]
        proof = report["epoch_proof"]
        assert proof["single_bump"] and proof["warmed_cached"]
        assert proof["post_retune_miss"] and proof["rows_stable"]
        assert report["healthz"]["all_ok"]
        assert report["end_state"]["consistent"]
        assert report["end_state"]["accounting_ok"]
        assert report["advisor"]["retunes"] >= 3
        # Round-trips as JSON, and the config is replayable from it.
        persisted = json.loads(out.read_text())
        assert persisted["config"]["advisor_threshold"] == FAST_SOAK.advisor_threshold
        assert persisted["config"]["seed"] == 7


class TestAdvisorCLI:
    def test_bench_advisor_prints_verdicts_and_exits_zero(self, tmp_path):
        out_path = tmp_path / "BENCH_advisor.json"
        code, text = run_cli(
            "bench",
            "advisor",
            "--seed",
            "7",
            "--io-micros",
            "20",
            "--phase-seconds",
            "15",
            "--out",
            str(out_path),
        )
        assert code == 0, text
        assert "phase query-heavy: converged" in text
        assert "phase update-heavy: converged" in text
        assert "rollback: build failure left the old design serving" in text
        assert "epoch proof: retune bumped" in text
        assert "post-retune plan recompiled" in text
        assert "healthz:" in text and "all 200: True" in text
        assert out_path.exists()
        assert json.loads(out_path.read_text())["ok"] is True

    def test_bench_serve_rejects_advisor_misuse(self, tmp_path):
        # The advisor flags belong to `serve` and `bench advisor`; plain
        # `bench serve` has no loop to arm, and says so.
        code, text = run_cli(
            "bench", "serve", "--advisor-interval", "0.5", "--ops", "8",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "bench advisor" in text
