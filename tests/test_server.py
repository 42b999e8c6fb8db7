"""The long-lived serve daemon: endpoints, health, graceful drain, CLI."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.bench.serve import ServeConfig
from repro.server import ServeDaemon, ServerConfig
from repro.telemetry import estimate_quantile
from repro.workload.opstream import apply_update, operation_stream

REPO_ROOT = Path(__file__).resolve().parents[1]


def tiny_config(tmp_path, **overrides) -> ServerConfig:
    defaults = dict(
        # A short admission queue keeps every drain to a few dozen ops.
        serve=ServeConfig(
            clients=2, ops=24, seed=7, capacity=64, io_micros=20.0,
            max_inflight=8,
        ),
        port=0,
        out=str(tmp_path / "BENCH_serve.json"),
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def get(daemon: ServeDaemon, path: str):
    """GET an endpoint; returns (status, content_type, body) even on 5xx."""
    host, port = daemon.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as resp:
            return resp.status, resp.headers.get("Content-Type"), resp.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type"), error.read().decode()


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def daemon(tmp_path):
    instance = ServeDaemon(tiny_config(tmp_path))
    instance.start()
    assert wait_until(lambda: instance.ops_served > 0), "no operation completed"
    yield instance
    instance.shutdown()


def serve_ops_total(exposition: str) -> float:
    """Operations completed, as the ``op.latency_ms`` counts say."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in exposition.splitlines()
        if line.startswith("repro_op_latency_ms_count")
    )


def prom_samples(exposition: str, name: str) -> dict[frozenset, float]:
    """Every sample of ``name`` in an exposition, keyed by its label set."""
    samples = {}
    for line in exposition.splitlines():
        match = re.fullmatch(rf"{name}(?:\{{(.*)\}})? (\S+)", line)
        if match:
            labels = re.findall(r'(\w+)="([^"]*)"', match.group(1) or "")
            samples[frozenset(labels)] = float(match.group(2))
    return samples


def prom_value(exposition: str, name: str):
    """The first sample of ``name`` in a Prometheus exposition, if any."""
    for line in exposition.splitlines():
        if line.startswith(f"{name} ") or line.startswith(f"{name}{{"):
            return float(line.rsplit(" ", 1)[1])
    return None


def async_config(tmp_path, **serve_overrides) -> ServerConfig:
    """A daemon config whose device waits dominate.

    The cold 16-page pool makes operations fault real pages and the
    slow fixed device prices them at milliseconds each — so in-flight
    operations pile up well past ``clients`` and a small admission
    queue saturates, which is exactly what these tests observe.
    """
    serve = dict(
        clients=2,
        ops=24,
        seed=7,
        capacity=16,
        io_micros=4000.0,
        max_inflight=8,
    )
    serve.update(serve_overrides)
    return tiny_config(tmp_path, serve=ServeConfig(**serve))


class TestEndpoints:
    def test_metrics_serves_live_prometheus_exposition(self, daemon):
        status, content_type, body = get(daemon, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "# TYPE repro_pool_hit_rate gauge" in body
        assert "repro_op_latency_ms_count" in body
        # The manager's lock publishes its writer queueing delays.
        assert "repro_lock_writer_wait_ms" in body

    def test_metrics_counters_are_monotone_across_scrapes(self, daemon):
        _, _, first = get(daemon, "/metrics")
        assert wait_until(
            lambda: daemon.ops_served > serve_ops_total(first), timeout=10
        )
        _, _, second = get(daemon, "/metrics")
        assert serve_ops_total(second) > serve_ops_total(first) > 0

    def test_healthz_reports_ok_while_serving(self, daemon):
        status, content_type, body = get(daemon, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert content_type == "application/json"
        assert payload["ok"] is True
        assert payload["status"] == "serving"
        assert payload["accounting"]["ok"] is True
        assert payload["hit_rate_ok"] is True
        assert payload["quarantined"] == []
        assert payload["asrs"] and all(
            entry["state"] == "consistent" for entry in payload["asrs"]
        )

    def test_healthz_non_200_when_accounting_violated(self, daemon):
        # Fake a torn charge: the retired accumulator gains a read the
        # shared pool never saw, so worker totals != shared totals.
        daemon.world.pool.retired.read(3)
        status, _, body = get(daemon, "/healthz")
        payload = json.loads(body)
        assert status == 503
        assert payload["ok"] is False
        assert payload["accounting"]["ok"] is False

    def test_stats_payload_matches_repro_stats_shape(self, daemon):
        status, _, body = get(daemon, "/stats")
        payload = json.loads(body)
        assert status == 200
        assert set(payload) == {"metrics", "drift", "accounting"}
        assert set(payload["metrics"]) == {"counters", "gauges", "histograms"}
        assert payload["accounting"]["ok"] is True
        # Rendered exactly like a written report, via the shared backend.
        from repro.telemetry import format_stats

        assert "accounting" in format_stats(
            payload["metrics"], payload["drift"], payload["accounting"]
        )

    def test_unknown_path_is_404_with_directory(self, daemon):
        status, _, body = get(daemon, "/nope")
        assert status == 404
        assert "/metrics" in json.loads(body)["endpoints"]

    def test_scrape_reads_drift_and_accounting_as_of_itself(self, daemon):
        # No background thread republishes anything.
        assert "serve-publisher" not in {t.name for t in threading.enumerate()}
        daemon.request_stop()
        assert wait_until(lambda: not daemon._loop_thread.is_alive())
        world = daemon.world
        before = world.drift.report()["overall"]["count"]
        for op in world.stream()[:8]:
            daemon._core.workers.execute(op)
        report = world.drift.report()
        assert report["overall"]["count"] > before
        # The first scrape after the new observations, with no wait.
        _, _, exposition = get(daemon, "/metrics")
        assert prom_value(exposition, "repro_accounting_ok") == 1.0
        assert prom_samples(exposition, "repro_drift_overall_geo_mean_ratio") == {
            frozenset(): report["overall"]["geo_mean_ratio"]
        }
        by_key = {
            frozenset(
                (label, entry[label]) for label in ("extension", "decomposition", "op")
            ): entry
            for entry in report["by_key"]
        }
        assert prom_samples(exposition, "repro_drift_observations_total") == {
            key: entry["count"] for key, entry in by_key.items()
        }
        assert prom_samples(exposition, "repro_drift_geo_mean_ratio") == {
            key: entry["geo_mean_ratio"] for key, entry in by_key.items()
        }
        assert prom_samples(exposition, "repro_drift_ratio") == {
            key: entry["ratio"]
            for key, entry in by_key.items()
            if entry["ratio"] is not None
        }


class TestGracefulDrain:
    def test_shutdown_flushes_batched_maintenance_and_writes_report(self, tmp_path):
        config = tiny_config(tmp_path)
        daemon = ServeDaemon(config).start()
        assert wait_until(lambda: daemon.ops_served > 0)
        manager = daemon.world.manager
        # Leave maintenance pending at the drain boundary: open a batch
        # (never exited) and mutate the graph under the write lock.
        batch = manager.batch()
        batch.__enter__()
        update = next(
            op
            for op in operation_stream(
                daemon.world.generated,
                config.serve.resolved_profile()[1],
                count=40,
                seed=3,
                query_fraction=0.0,
            )
            if op.kind == "update"
        )
        with manager.exclusive():
            apply_update(daemon.world.generated, update)

        report = daemon.shutdown()
        manager.check_consistency()  # the drain flushed the batched queues
        assert manager.closed
        assert daemon.world.pool.contexts == []  # every context retired
        assert report["accounting"]["ok"] is True
        assert report["drained"]["errors"] == []
        written = json.loads(Path(config.out).read_text())
        assert written["benchmark"] == "serve"
        assert written["mode"] == "daemon"
        assert written["ops_served"] > 0
        # The latency table is read from the report's own histograms.
        histograms = written["metrics"]["histograms"]["op.latency_ms"]
        assert written["operations"] == {
            entry["labels"]["op"]: {
                "count": entry["count"],
                "p50_ms": round(estimate_quantile(entry, 0.50), 3),
                "p95_ms": round(estimate_quantile(entry, 0.95), 3),
                "p99_ms": round(estimate_quantile(entry, 0.99), 3),
                "mean_ms": round(entry["mean"], 3),
            }
            for entry in histograms
        }
        assert sum(row["count"] for row in written["operations"].values()) == (
            written["ops_served"]
        )
        batch.__exit__(None, None, None)

    def test_shutdown_is_idempotent(self, tmp_path):
        daemon = ServeDaemon(tiny_config(tmp_path)).start()
        first = daemon.shutdown()
        assert daemon.shutdown() is first

    def test_stop_admission_precedes_drain(self, tmp_path):
        daemon = ServeDaemon(tiny_config(tmp_path)).start()
        daemon.request_stop()
        report = daemon.shutdown()
        # Once stopped, no further ops are admitted.
        assert report["ops_served"] == daemon.ops_served


class TestAsyncCore:
    def test_async_daemon_serves_beyond_clients_inflight(self, tmp_path):
        daemon = ServeDaemon(async_config(tmp_path)).start()
        try:
            assert wait_until(lambda: daemon.ops_served > 0)
            status, _, body = get(daemon, "/healthz")
            payload = json.loads(body)
            assert status == 200
            assert payload["ok"] is True

            # With 8 admission slots over 2 executor threads and a slow
            # device, a scrape catches more operations in flight than
            # there are executor threads (> clients).
            def inflight_exceeds_clients():
                _, _, exposition = get(daemon, "/metrics")
                inflight = prom_value(exposition, "repro_inflight")
                return inflight is not None and inflight > 2

            assert wait_until(inflight_exceeds_clients, timeout=20)
            _, _, exposition = get(daemon, "/metrics")
            assert prom_value(exposition, "repro_queue_depth") is not None
            assert "repro_queue_wait_ms" in exposition
        finally:
            report = daemon.shutdown()
        assert report["accounting"]["ok"] is True
        assert report["drained"]["errors"] == []

    def test_overload_sheds_counted_and_healthz_stays_200(self, tmp_path):
        # Two admission slots, both glued to multi-ms device waits: the
        # replay pump saturates the queue and must shed, not queue
        # unboundedly — and shedding is *healthy*, not a 503.
        daemon = ServeDaemon(async_config(tmp_path, max_inflight=2)).start()
        try:
            registry = daemon.world.registry

            def rejected():
                return registry.counter_value("admission.rejected")

            assert wait_until(lambda: rejected() > 0, timeout=20)
            status, _, body = get(daemon, "/healthz")
            payload = json.loads(body)
            assert status == 200
            assert payload["ok"] is True
            assert payload["admission_rejected"] > 0
            _, _, exposition = get(daemon, "/metrics")
            assert prom_value(exposition, "repro_admission_rejected_total") > 0
        finally:
            report = daemon.shutdown()
        assert report["admission_rejected"] > 0
        assert report["accounting"]["ok"] is True

    def test_drain_under_saturated_queue_loses_nothing(self, tmp_path):
        config = async_config(tmp_path, max_inflight=2)
        daemon = ServeDaemon(config).start()
        registry = daemon.world.registry
        assert wait_until(
            lambda: registry.counter_value("admission.rejected") > 0, timeout=20
        )
        # Drain while the admission queue is provably saturated.
        manager = daemon.world.manager
        report = daemon.shutdown()
        manager.check_consistency()  # the drain lost no batched maintenance
        assert manager.closed
        assert daemon.world.pool.contexts == []  # every context retired
        assert report["ops_served"] > 0
        assert report["accounting"]["ok"] is True
        assert report["drained"]["errors"] == []
        written = json.loads(Path(config.out).read_text())
        assert written["config"]["max_inflight"] == 2
        assert written["ops_served"] == report["ops_served"]


class TestServeCLI:
    def test_empty_stream_with_clients_is_a_usage_error(self, tmp_path):
        import io

        from repro.cli import main

        config = tiny_config(tmp_path, serve=ServeConfig(clients=2, ops=0))
        with pytest.raises(ValueError, match="empty stream"):
            ServeDaemon(config).start()
        out = io.StringIO()
        code = main(
            ["serve", "--port", "0", "--ops", "0", "--clients", "2",
             "--out", str(tmp_path / "never.json")],
            out=out,
        )
        assert code == 2
        assert out.getvalue().startswith("error: ")
        assert len(out.getvalue().splitlines()) == 1
        assert not (tmp_path / "never.json").exists()

    def test_daemon_serves_and_drains_on_sigterm(self, tmp_path):
        addr_file = tmp_path / "serve.addr"
        out = tmp_path / "BENCH_serve.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--clients", "2", "--ops", "24",
                "--io-micros", "20",
                "--addr-file", str(addr_file), "--out", str(out),
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            assert wait_until(addr_file.exists, timeout=30), "daemon never bound"
            addr = addr_file.read_text().strip()
            with urllib.request.urlopen(f"http://{addr}/healthz", timeout=10) as resp:
                assert resp.status == 200
                assert json.load(resp)["ok"] is True
            def _serve_counter_published() -> bool:
                with urllib.request.urlopen(
                    f"http://{addr}/metrics", timeout=10
                ) as resp:
                    return b"repro_op_latency_ms_count" in resp.read()

            # The latency count appears once the first replayed op completes.
            assert wait_until(_serve_counter_published, timeout=30)
            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stdout
        assert "serving on http://" in stdout
        assert "drained after" in stdout
        report = json.loads(out.read_text())
        assert report["mode"] == "daemon"
        assert report["accounting"]["ok"] is True
