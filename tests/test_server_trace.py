"""End-to-end request tracing: phases, endpoints, self-metrics, stress.

The acceptance bar of DESIGN §14: a single ``POST /query`` yields a
retrievable trace whose phase rollup
(``queue + lock + plan + cache-hit + execute + device + serialize``)
accounts for >= 90% of the reported end-to-end latency, and the trace
endpoints plus the HTTP self-metrics observe every request — scrapes
included.
"""

import json
import re
import time
import urllib.error
import urllib.request

import pytest

from repro.bench.serve import ServeConfig
from repro.server import ServeDaemon, ServerConfig
from repro.telemetry.tracing import PHASES

from tests.telemetry.test_one_span_model import LAYER_PREFIXES, measured_pages
from tests.test_server_query import routed

#: A shape the replay stream never sends (its literals are on the
#: right), so the first POST of a test is a plan-cache miss.
QUERY = "select x from x in extent(T0) where -5 <= x.A.A.A.A.Payload"


def renamed(text: str, variable: str) -> str:
    """``text`` over range variable ``variable``: same rows, a shape of its own."""
    return re.sub(r"\bx\b", variable, text)


def traced_config(tmp_path, **overrides) -> ServerConfig:
    serve_kwargs = dict(
        clients=2,
        ops=16,
        seed=7,
        capacity=64,
        # Disk-class I/O: the device phase dominates, so attribution
        # coverage is a meaningful bar rather than clock noise.
        io_dist="disk",
        profile="queries",
        query_fraction=1.0,
        max_inflight=8,
        trace_sample_rate=1.0,
        slow_trace_ms=0.0,
    )
    serve_kwargs.update(overrides)
    return ServerConfig(
        serve=ServeConfig(**serve_kwargs),
        port=0,
        out=str(tmp_path / "BENCH_serve.json"),
    )


def http_get(daemon: ServeDaemon, path: str):
    host, port = daemon.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}{path}", timeout=10
        ) as resp:
            raw = resp.read().decode()
            status = resp.status
    except urllib.error.HTTPError as error:
        raw = error.read().decode()
        status = error.code
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw


def post_query(daemon: ServeDaemon, text: str):
    host, port = daemon.address
    request = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=json.dumps({"query": text}).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def quiesce(daemon: ServeDaemon) -> None:
    daemon.request_stop()
    assert wait_until(
        lambda: not daemon._loop_thread.is_alive()
    ), "replay loop did not quiesce"


# One-valued on purpose: the id keeps these items' names
# (``test_x[async]``) stable now that the event-loop core is the only one.
@pytest.fixture(params=["async"])
def traced_daemon(tmp_path):
    daemon = ServeDaemon(traced_config(tmp_path))
    daemon.start()
    assert wait_until(lambda: daemon.ops_served > 0), "no operation completed"
    quiesce(daemon)
    yield daemon
    daemon.shutdown()


class TestQueryTraceAcceptance:
    def test_post_query_trace_phases_cover_the_latency(self, traced_daemon):
        # The acceptance bar: the phase rollup accounts for >= 90% of
        # the reported end-to-end latency.  A single sample is at the
        # mercy of scheduler preemption between clock reads on a loaded
        # machine, so take the best of a few attempts — a systematic
        # attribution hole fails all of them.  Each attempt renames the
        # range variable so every plan is a cache miss (the bar covers the
        # full parse/validate/compile pipeline, not a cache probe), and
        # runs against a cold pool: the relative bar presumes the
        # disk-class device phase ``traced_config`` promises, and after
        # warm-up the 64-page pool holds everything the request reads —
        # no page charged, no ``device`` phase, and the front door's
        # constant ~80 us of unspanned glue (docs/observability.md) is a
        # tenth of a sub-millisecond request.
        best = None
        least_unattributed_ms = float("inf")
        for attempt in range(5):
            traced_daemon.world.pool.pool.evict_all()
            status, payload = post_query(
                traced_daemon, renamed(QUERY, f"x{attempt}")
            )
            assert status == 200
            trace_id = payload["trace_id"]
            status, trace = http_get(traced_daemon, f"/trace/{trace_id}")
            assert status == 200
            assert trace["trace_id"] == trace_id
            assert trace["name"] == "POST /query"
            assert trace["outcome"] == "ok"
            # The premise of the relative bar; it lapsed silently once.
            assert payload["total_pages"] > 0
            assert trace["phases"]["device"] > 0
            covered = sum(trace["phases"].values())
            least_unattributed_ms = min(
                least_unattributed_ms, trace["unattributed_ms"]
            )
            if best is None or covered / trace["duration_ms"] > best[0]:
                best = (covered / trace["duration_ms"], payload, trace, covered)
            if covered >= 0.9 * trace["duration_ms"] and least_unattributed_ms <= 0.3:
                break
        ratio, payload, trace, covered = best
        assert covered >= 0.9 * trace["duration_ms"], (
            f"best phase coverage over 5 attempts was {ratio:.1%}"
        )
        # The absolute bar the relative one stands in for: the glue no
        # span covers is a constant, whatever the device adds.
        assert least_unattributed_ms <= 0.3, (
            f"least unattributed time over 5 attempts was {least_unattributed_ms:.3f} ms"
        )
        assert trace["unattributed_ms"] == pytest.approx(
            trace["duration_ms"] - covered, abs=1e-3
        )
        # Every phase key belongs to the declared vocabulary, and the
        # pipeline's load-bearing ones are present.
        assert set(trace["phases"]) <= set(PHASES)
        expected = ["plan", "execute", "serialize"]
        if payload["total_pages"]:  # a fully buffer-resident query
            expected.append("device")  # charges no simulated I/O at all
        for phase in expected:
            assert phase in trace["phases"], f"missing phase {phase!r}"
        # The span tree is well-formed: parents precede children.
        for index, span in enumerate(trace["spans"]):
            assert span["parent"] is None or 0 <= span["parent"] < index
        assert trace["annotations"]["strategy"] == payload["strategy"]
        assert trace["annotations"]["pages"] == payload["total_pages"]

    def test_measured_rows_sum_to_the_response_total_pages(self, traced_daemon):
        status, payload = post_query(traced_daemon, QUERY.replace("-5", "-6"))
        assert status == 200
        _status, trace = http_get(traced_daemon, f"/trace/{payload['trace_id']}")
        assert measured_pages(trace["spans"]) == payload["total_pages"]
        assert any("page_reads" in span for span in trace["spans"])
        names = {span["name"] for span in trace["spans"]}
        expected = {"query.compile", "query.run_compiled", "server.serialize"}
        if payload["total_pages"]:  # a buffer-resident query charges no I/O
            expected.add("device.charge")
        assert expected <= names
        assert all(name.startswith(LAYER_PREFIXES) for name in names), names

    def test_a_500_leaves_an_error_trace_behind(self, traced_daemon, monkeypatch):
        # Regression: only ParseError / QueryError finished the trace, so
        # the request tail capture exists for was the one it lost.
        def broken(*_args, **_kwargs):
            raise RuntimeError("storage on fire")

        monkeypatch.setattr(traced_daemon.world.queries, "execute", broken)
        registry = traced_daemon.world.registry
        before = registry.counter_value("tracing.sampled")
        status, body = post_query(traced_daemon, QUERY)
        assert status == 500 and "storage on fire" in body["error"]
        newest = traced_daemon.world.tracer.store.recent(1)[0]
        assert (newest.name, newest.outcome) == ("POST /query", "error")
        assert newest.duration_ms is not None
        assert registry.counter_value("tracing.sampled") == before + 1

    def test_latency_exemplar_names_a_retained_trace(self, traced_daemon):
        status, payload = post_query(traced_daemon, QUERY)
        assert status == 200
        hist = traced_daemon.world.registry.histogram("query.latency_ms")
        assert hist is not None and hist.exemplar is not None
        status, trace = http_get(
            traced_daemon, f"/trace/{hist.exemplar['trace_id']}"
        )
        assert status == 200

    def test_replayed_operations_leave_traces_too(self, traced_daemon):
        status, body = http_get(traced_daemon, "/trace/recent?limit=100")
        assert status == 200
        assert body["tracing"]["enabled"] is True
        op_traces = [
            t
            for t in body["traces"]
            if t["name"] != "POST /query" and t["outcome"] == "ok"
        ]
        assert op_traces, "the replay loop left no completed traces"
        for summary in op_traces:
            assert sum(summary["phases"].values()) <= summary[
                "duration_ms"
            ] + 0.5, "phases overshoot the end-to-end latency"


class TestTraceEndpoints:
    def test_recent_is_newest_first(self, traced_daemon):
        # Retention order is *finish* order; with the replay quiesced,
        # the POSTed query is the newest retained trace.
        _status, payload = post_query(traced_daemon, QUERY)
        _status, body = http_get(traced_daemon, "/trace/recent?limit=3")
        assert len(body["traces"]) <= 3
        assert body["traces"][0]["trace_id"] == payload["trace_id"]

    def test_unknown_trace_id_is_404(self, traced_daemon):
        status, body = http_get(traced_daemon, "/trace/t0000-deadbeef")
        assert status == 404
        assert "trace not found" in body["error"]

    def test_404_directory_advertises_trace_endpoints(self, traced_daemon):
        status, body = http_get(traced_daemon, "/nope")
        assert status == 404
        assert "/trace/recent" in body["endpoints"]


class TestHttpSelfMetrics:
    def test_every_endpoint_is_counted_and_timed(self, traced_daemon):
        registry = traced_daemon.world.registry
        post_query(traced_daemon, QUERY)
        _status, body = http_get(traced_daemon, "/trace/recent")
        some_id = body["traces"][0]["trace_id"] if body["traces"] else "t-x"
        for path in ("/metrics", "/healthz", "/stats", f"/trace/{some_id}"):
            http_get(traced_daemon, path)
        for endpoint in (
            "/metrics",
            "/healthz",
            "/stats",
            "/query",
            "/trace/recent",
            "/trace/:id",
        ):
            # Self-metrics land in a finally after the response bytes
            # are on the wire, so allow the handler thread to catch up.
            assert wait_until(lambda: routed(registry, endpoint) >= 1), (
                f"uncounted endpoint {endpoint!r}"
            )

    def test_unknown_paths_collapse_into_one_label(self, traced_daemon):
        http_get(traced_daemon, "/nope")
        http_get(traced_daemon, "/also/nope")
        registry = traced_daemon.world.registry
        assert wait_until(lambda: routed(registry, "other") >= 2)

    def test_self_metrics_appear_in_the_exposition(self, traced_daemon):
        registry = traced_daemon.world.registry
        http_get(traced_daemon, "/metrics")
        # The self-metric lands in a finally *after* the response bytes
        # are on the wire, so wait for it before the next scrape.
        assert wait_until(lambda: routed(registry, "/metrics") >= 1)
        _status, text = http_get(traced_daemon, "/metrics")
        assert 'repro_http_latency_ms_count{endpoint="/metrics"}' in text
        assert "repro_http_latency_ms_bucket" in text
        # Derived quantiles ride along on every histogram family.
        assert 'repro_http_latency_ms_quantile{' in text


class TestSamplingOff:
    @pytest.fixture(params=["async"])
    def untraced_daemon(self, tmp_path):
        daemon = ServeDaemon(
            traced_config(
                tmp_path,
                io_dist="fixed",
                io_micros=20.0,
                trace_sample_rate=0.0,
                slow_trace_ms=None,
            )
        )
        daemon.start()
        assert wait_until(lambda: daemon.ops_served > 0)
        quiesce(daemon)
        yield daemon
        daemon.shutdown()

    def test_disabled_tracer_retains_nothing_and_omits_trace_ids(
        self, untraced_daemon
    ):
        status, payload = post_query(untraced_daemon, QUERY)
        assert status == 200
        assert "trace_id" not in payload
        assert len(untraced_daemon.world.tracer.store) == 0
        _status, body = http_get(untraced_daemon, "/trace/recent")
        assert body["tracing"]["enabled"] is False
        assert body["traces"] == []


class TestTraceIntegrityUnderConcurrency:
    """8 workers hammering the core must never tear a span tree."""

    @pytest.fixture(params=["async"])
    def busy_daemon(self, tmp_path):
        daemon = ServeDaemon(
            traced_config(
                tmp_path,
                clients=8,
                ops=64,
                io_dist="fixed",
                io_micros=50.0,
                query_fraction=0.8,
            )
        )
        daemon.start()
        assert wait_until(lambda: daemon.ops_served >= 200), "stream stalled"
        quiesce(daemon)
        yield daemon
        daemon.shutdown()

    def test_span_trees_stay_consistent(self, busy_daemon):
        traces = busy_daemon.world.tracer.store.recent(2048)
        assert len(traces) >= 200
        seen_ids = set()
        for trace in traces:
            assert trace.trace_id not in seen_ids, "duplicate trace id"
            seen_ids.add(trace.trace_id)
            assert trace.duration_ms is not None, "unfinished trace retained"
            for index, span in enumerate(trace.spans):
                parent = span["parent"]
                # Parents precede children within the same trace — a
                # span appended by a foreign request would break this
                # monotonicity (or the phase accounting below).
                assert parent is None or 0 <= parent < index
                assert span["duration_ms"] is not None
                assert span["start_ms"] >= 0.0
                assert span["name"].startswith(LAYER_PREFIXES), span["name"]
            assert set(trace.phases) <= set(PHASES)
            # Phases are disjoint segments: their sum can only approach
            # the end-to-end latency from below (small scheduling
            # tolerance for clock granularity).
            attributed = sum(trace.phases.values())
            assert attributed <= trace.duration_ms + 1.0, (
                f"phase sum {attributed:.3f}ms exceeds e2e "
                f"{trace.duration_ms:.3f}ms for {trace.trace_id}"
            )

    def test_completed_query_ops_attribute_their_device_time(self, busy_daemon):
        completed = [
            trace
            for trace in busy_daemon.world.tracer.store.recent(2048)
            if trace.outcome == "ok" and trace.annotations.get("pages")
        ]
        assert completed
        assert any("device" in trace.phases for trace in completed)
