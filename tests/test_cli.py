"""The command-line interface (``python -m repro``)."""

import io
import json
import time

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestDemo:
    def test_demo_answers_query1(self):
        code, text = run_cli("demo")
        assert code == 0
        assert "R2D2" in text
        assert "asr-backward" in text
        # The demo says why it took its plan: the ASR at its price.
        assert "plan: " in text and "via ASR[can, dec=(0, 4)] (~2 pages)" in text


class TestValidate:
    def test_validate_prints_comparison(self):
        code, text = run_cli("validate", "--seed", "3")
        assert code == 0
        assert "measured unsupported" in text
        assert "results identical: True" in text

    def test_scale(self):
        code, text = run_cli("validate", "--seed", "3", "--scale", "0.5")
        assert code == 0
        assert "scale 0.5" in text


class TestFigures:
    def test_single_figure(self):
        code, text = run_cli("figures", "--only", "fig04")
        assert code == 0
        assert "Figure 4" in text
        assert "can/bi" in text

    def test_unknown_figure(self):
        code, text = run_cli("figures", "--only", "fig99")
        assert code == 2
        assert "unknown figure" in text

    @pytest.mark.parametrize("fig", ["fig06", "fig11"])
    def test_other_figures(self, fig):
        code, text = run_cli("figures", "--only", fig)
        assert code == 0


class TestAdvise:
    def write_profile(self, tmp_path, payload):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(payload))
        return path

    def test_advise_with_custom_mix(self, tmp_path):
        profile = self.write_profile(
            tmp_path,
            {
                "c": [100, 500, 1000],
                "d": [90, 400],
                "fan": [2, 3],
                "size": [300, 200, 100],
                "queries": [[1.0, 0, 2, "bw"]],
                "updates": [[1.0, 1]],
            },
        )
        code, text = run_cli("advise", "--profile", str(profile), "--pup", "0.3")
        assert code == 0
        assert "feasible designs" in text
        assert "pages/op" in text

    def test_advise_default_mix(self, tmp_path):
        profile = self.write_profile(
            tmp_path,
            {
                "c": [1000, 5000, 10000, 50000, 100000],
                "d": [900, 4000, 8000, 20000],
                "fan": [2, 2, 3, 4],
                "size": [500, 400, 300, 300, 100],
            },
        )
        code, text = run_cli("advise", "--profile", str(profile))
        assert code == 0
        assert "Q0,4(bw)" in text  # the built-in Figure 14 mix

    def test_budget_prunes(self, tmp_path):
        profile = self.write_profile(
            tmp_path,
            {
                "c": [1000, 5000, 10000, 50000, 100000],
                "d": [900, 4000, 8000, 20000],
                "fan": [2, 2, 3, 4],
                "size": [500, 400, 300, 300, 100],
            },
        )
        code_all, text_all = run_cli("advise", "--profile", str(profile))
        code_tight, text_tight = run_cli(
            "advise", "--profile", str(profile), "--budget-kib", "300"
        )
        assert code_all == code_tight == 0
        count_all = int(text_all.split(" feasible")[0].split()[-1])
        count_tight = int(text_tight.split(" feasible")[0].split()[-1])
        assert count_tight < count_all

    def test_missing_file(self, tmp_path):
        code, text = run_cli("advise", "--profile", str(tmp_path / "ghost.json"))
        assert code == 1
        assert "error" in text

    def test_invalid_profile(self, tmp_path):
        profile = self.write_profile(
            tmp_path, {"c": [10, 10], "d": [99], "fan": [1]}
        )
        code, text = run_cli("advise", "--profile", str(profile))
        assert code == 1
        assert "error" in text


class TestExportAndProfile:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "company.json"
        code, text = run_cli("export-demo", "--out", str(target))
        assert code == 0
        assert "13 objects" in text
        assert target.exists()
        code, text = run_cli(
            "profile",
            "--db",
            str(target),
            "--path",
            "Division.Manufactures.Composition.Name",
        )
        assert code == 0
        assert "c    = (3, 3, 2, 2)" in text
        assert "ASR configuration" in text

    def test_profile_missing_db(self, tmp_path):
        code, text = run_cli(
            "profile", "--db", str(tmp_path / "ghost.json"), "--path", "X.Y"
        )
        assert code == 1
        assert "error" in text

    def test_profile_bad_path(self, tmp_path):
        target = tmp_path / "company.json"
        run_cli("export-demo", "--out", str(target))
        code, text = run_cli("profile", "--db", str(target), "--path", "Ghost.X")
        assert code == 1
        assert "error" in text


class TestTracing:
    def test_demo_prints_page_accesses(self):
        code, text = run_cli("demo")
        assert code == 0
        assert "page accesses:" in text
        assert "total" in text

    def test_validate_writes_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        code, text = run_cli(
            "validate", "--seed", "3", "--scale", "0.5", "--trace", str(trace)
        )
        assert code == 0
        assert "trace:" in text
        data = json.loads(trace.read_text())
        assert data["capacity"] is None
        assert data["total_pages"] == data["page_reads"] + data["page_writes"]
        names = [span["name"] for span in data["spans"]]
        assert "query.unsupported.bw" in names
        assert "query.supported.bw" in names


class TestDoctor:
    def test_demo_crash_is_diagnosed(self):
        code, text = run_cli("doctor")
        assert code == 1  # something is quarantined: non-zero for scripts
        assert "asr.flush.mid-delta" in text
        assert "quarantined" in text
        assert "1 quarantined" in text

    def test_repair_recovers_and_exits_zero(self):
        code, text = run_cli("doctor", "--repair")
        assert code == 0
        assert "-> recovered" in text
        assert "0 quarantined" in text
        assert "1 recovered" in text

    def test_saved_database_is_healthy(self, tmp_path):
        target = tmp_path / "company.json"
        run_cli("export-demo", "--out", str(target))
        code, text = run_cli("doctor", "--db", str(target))
        assert code == 0
        assert "consistent" in text
        assert "0 quarantined" in text


@pytest.fixture(scope="module")
def daemon_report(tmp_path_factory):
    """One in-process daemon's drain report: what ``repro stats`` reads."""
    from repro.bench.serve import ServeConfig
    from repro.server import ServeDaemon, ServerConfig

    target = tmp_path_factory.mktemp("serve") / "BENCH_serve_daemon.json"
    daemon = ServeDaemon(
        ServerConfig(
            serve=ServeConfig(clients=2, ops=16, io_micros=20.0, capacity=64),
            port=0,
            out=str(target),
        )
    ).start()
    deadline = time.monotonic() + 30.0
    while daemon.ops_served < 16 and time.monotonic() < deadline:
        time.sleep(0.01)
    daemon.shutdown()
    return target


class TestBenchServe:
    def test_serve_writes_report_and_exits_zero(self, daemon_report):
        # ``repro serve`` exits 0 iff accounting holds and the drain
        # recorded no error; both are in the report it writes.
        report = json.loads(daemon_report.read_text())
        assert report["mode"] == "daemon"
        assert report["accounting"]["ok"] is True
        assert report["drained"]["errors"] == []
        assert report["ops_served"] >= 16
        assert all("p99_ms" in entry for entry in report["operations"].values())
        assert "metrics" in report and "drift" in report

    def test_serve_async_flags(self):
        from repro.cli import _build_parser, _serve_config_from

        args = _build_parser().parse_args(
            [
                "serve", "--clients", "2", "--ops", "16", "--capacity", "16",
                "--io-micros", "1000", "--io-dist", "lognormal:0.3",
                "--max-inflight", "32", "--op-deadline-ms", "50",
                "--profile", "queries",
            ]
        )
        config = _serve_config_from(args)
        assert (config.clients, config.ops, config.capacity) == (2, 16, 16)
        assert (config.io_micros, config.io_dist) == (1000.0, "lognormal:0.3")
        assert (config.max_inflight, config.profile) == (32, "queries")
        assert config.op_deadline_ms == 50.0

    def test_chaos_rate_alone_strikes_the_default_points(self):
        # Recovery-point storms are opt-in: ``--chaos-rate`` without
        # ``--chaos-crash-points`` arms what ChaosConfig arms by default.
        from repro.cli import _build_parser, _chaos_config_from
        from repro.resilience import ChaosConfig

        args = _build_parser().parse_args(["serve", "--chaos-rate", "0.1"])
        assert _chaos_config_from(args).points == ChaosConfig().points

    def test_bad_io_dist_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            run_cli("serve", "--io-dist", "tape")

    def test_shared_out_default_redirected_off_the_baseline(self):
        # ``repro stats`` reads by default what ``repro serve`` writes.
        from pathlib import Path

        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["serve"]).out == Path("BENCH_serve_daemon.json")
        assert parser.parse_args(["stats"]).input == Path("BENCH_serve_daemon.json")

    def test_daemon_config_default_out_is_not_the_baseline(self):
        from repro.server import ServerConfig

        assert ServerConfig().out == "BENCH_serve_daemon.json"


class TestStats:
    def test_human_table(self, daemon_report):
        code, text = run_cli("stats", "--in", str(daemon_report))
        assert code == 0
        assert "accounting" in text
        assert "drift" in text.lower()
        assert "pool.hit_rate" in text
        assert "op.latency_ms" in text

    def test_json_output(self, daemon_report):
        code, text = run_cli("stats", "--in", str(daemon_report), "--json")
        assert code == 0
        data = json.loads(text)
        assert set(data) == {"metrics", "drift", "accounting"}
        assert data["accounting"]["ok"] is True
        assert data["drift"]["overall"]["finite"] is True

    def test_prometheus_output(self, daemon_report):
        code, text = run_cli("stats", "--in", str(daemon_report), "--prometheus")
        assert code == 0
        assert "# TYPE repro_pool_hit_rate gauge" in text
        assert "repro_op_latency_ms_count" in text

    def test_missing_file_errors(self, tmp_path):
        code, text = run_cli("stats", "--in", str(tmp_path / "nope.json"))
        assert code == 1

    def test_report_without_telemetry_errors(self, tmp_path):
        stale = tmp_path / "old.json"
        stale.write_text(json.dumps({"mode": "daemon"}))
        code, text = run_cli("stats", "--in", str(stale))
        assert code == 1
        assert "no telemetry" in text
