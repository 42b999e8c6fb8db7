"""``POST /query``: the JSON front door, its cache, and its error paths.

These tests quiesce the replay loop first (``request_stop`` stops
admission while the HTTP endpoint keeps serving), so cache and plan
counters move only when the test POSTs — the cache-hit and
epoch-invalidation assertions are exact.
"""

import http.client
import json
import re
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.bench.serve import ServeConfig
from repro.server import ServeDaemon, ServerConfig

#: ``x.… >= -5`` with the literal on the left: the replay stream's
#: selects put it on the right, so the replay cannot pre-warm this
#: shape's plan.
QUERY = "select x from x in extent(T0) where -5 <= x.A.A.A.A.Payload"


def queries_config(tmp_path, **serve_overrides) -> ServerConfig:
    serve = dict(
        clients=2,
        ops=16,
        seed=7,
        capacity=64,
        io_micros=20.0,
        profile="queries",
        # No updates: the object graph — and hence the ASR epoch — stays
        # quiescent between the test's own POSTs.
        query_fraction=1.0,
        max_inflight=8,
    )
    serve.update(serve_overrides)
    return ServerConfig(
        serve=ServeConfig(**serve),
        port=0,
        out=str(tmp_path / "BENCH_serve.json"),
    )


def post(daemon: ServeDaemon, path: str, body: bytes, content_type="application/json"):
    host, port = daemon.address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        headers={"Content-Type": content_type},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def post_query(daemon: ServeDaemon, text: str):
    return post(daemon, "/query", json.dumps({"query": text}).encode())


def wait_until(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def quiesce(daemon: ServeDaemon) -> None:
    """Stop the replay loop; the HTTP endpoint stays up."""
    daemon.request_stop()
    assert wait_until(
        lambda: not daemon._loop_thread.is_alive()
    ), "replay loop did not quiesce"


# One-valued on purpose: the id keeps these items' names
# (``test_x[async]``) stable now that the event-loop core is the only one.
@pytest.fixture(params=["async"])
def quiet_daemon(tmp_path):
    daemon = ServeDaemon(queries_config(tmp_path))
    daemon.start()
    assert wait_until(lambda: daemon.ops_served > 0), "no operation completed"
    quiesce(daemon)
    yield daemon
    daemon.shutdown()


def rebuild(manager) -> None:
    """Re-materialize every ASR under its own design (a new epoch each)."""
    for asr in list(manager.asrs):
        manager.rematerialize(asr, asr.extension, asr.decomposition)


def planned(registry) -> float:
    return registry.counter_value("ops", op="plan.supported") + registry.counter_value(
        "ops", op="plan.unsupported"
    )


def routed(registry, endpoint: str) -> int:
    """Requests routed to ``endpoint``: its ``http.latency_ms`` count."""
    state = registry.histogram("http.latency_ms", endpoint=endpoint)
    return 0 if state is None else state.count


class TestQueryEndpoint:
    def test_rows_strategy_and_cost_returned(self, quiet_daemon):
        status, payload = post_query(quiet_daemon, QUERY)
        assert status == 200
        assert payload["row_count"] == len(payload["rows"]) > 0
        assert payload["strategy"]
        assert payload["total_pages"] == (
            payload["page_reads"] + payload["page_writes"]
        )
        assert payload["cached"] is False
        # OIDs render as their repr, so rows are JSON-clean.
        assert all(isinstance(cell, str) for row in payload["rows"] for cell in row)

    def test_projection_renders_oids_as_strings_never_as_lists(self, quiet_daemon):
        # An OID is a one-field tuple: a JSON boundary that skipped
        # ``jsonable_cell`` would emit ``[42]`` instead of raising.
        status, payload = post_query(
            quiet_daemon, QUERY.replace("select x ", "select x, x.A.A.A.A.Payload ")
        )
        assert status == 200 and payload["row_count"] > 0
        for oid, value in payload["rows"]:
            assert re.fullmatch(r"i\d+", oid), oid
            assert isinstance(value, int) and not isinstance(value, bool)
        assert not re.search(r"\[\s*\d+\s*\]", json.dumps(payload))

    def test_second_identical_post_hits_cache_and_skips_planning(
        self, quiet_daemon
    ):
        registry = quiet_daemon.world.registry
        first_status, first = post_query(quiet_daemon, QUERY)
        assert first_status == 200 and first["cached"] is False
        hits = registry.counter_value("query.cache.hits")
        plans = planned(registry)
        second_status, second = post_query(quiet_daemon, QUERY)
        assert second_status == 200 and second["cached"] is True
        assert second["rows"] == first["rows"]
        assert second["epoch"] == first["epoch"]
        assert registry.counter_value("query.cache.hits") == hits + 1
        # The acceptance bar: a hit does no planning work at all.
        assert planned(registry) == plans

    def test_whitespace_variant_shares_the_cached_plan(self, quiet_daemon):
        post_query(quiet_daemon, QUERY)
        status, payload = post_query(
            quiet_daemon, QUERY.replace(" where ", "\n   WHERE".lower() + " ")
        )
        # (only whitespace differs; keywords stay as written)
        assert status == 200
        assert payload["cached"] is True

    def test_epoch_bump_invalidates_cached_plan(self, quiet_daemon):
        registry = quiet_daemon.world.registry
        manager = quiet_daemon.world.manager
        _status, first = post_query(quiet_daemon, QUERY)
        _status, again = post_query(quiet_daemon, QUERY)
        assert again["cached"] is True
        # A rebuild bumps the manager epoch …
        epoch_before = manager.epoch
        rebuild(manager)
        assert manager.epoch > epoch_before
        misses = registry.counter_value("query.cache.misses")
        plans = planned(registry)
        status, payload = post_query(quiet_daemon, QUERY)
        # … so the next request is a counted miss that re-plans.
        assert status == 200
        assert payload["cached"] is False
        assert payload["epoch"] == manager.epoch > first["epoch"]
        assert payload["rows"] == first["rows"]
        assert registry.counter_value("query.cache.misses") == misses + 1
        assert planned(registry) > plans


class TestShapeKeyedCache:
    """Plans are cached per shape: the text with its literals abstracted."""

    def test_a_literal_never_sent_is_a_hit_with_the_cold_rows(self, quiet_daemon):
        manager = quiet_daemon.world.manager
        _status, first = post_query(quiet_daemon, QUERY)
        assert first["cached"] is False
        unseen = QUERY.replace("-5", "123456")
        status, hit = post_query(quiet_daemon, unseen)
        assert status == 200 and hit["cached"] is True
        rebuild(manager)  # a new epoch: the next POST runs cold
        status, fresh = post_query(quiet_daemon, unseen)
        assert status == 200 and fresh["cached"] is False
        # (Pages are the shared pool's misses: the rebuild left it cold.)
        assert (hit["rows"], hit["strategy"]) == (fresh["rows"], fresh["strategy"])

    def test_a_literal_is_bound_only_into_a_plan_of_its_kind(self, quiet_daemon):
        text = "select x from x in extent(T0) where {} = x.A.A.A.A.Payload"
        status, error = post_query(quiet_daemon, text.format('"5"'))
        assert status == 400 and error["error"]["kind"] == "validate", error
        status, payload = post_query(quiet_daemon, text.format("5"))
        assert status == 200 and payload["cached"] is False
        status, payload = post_query(quiet_daemon, text.format("6"))
        assert status == 200 and payload["cached"] is True
        # The string and the float are shapes of their own, and INTEGER
        # accepts neither: no int plan answers them.
        for literal in ('"6"', "5.0"):
            status, error = post_query(quiet_daemon, text.format(literal))
            assert status == 400 and error["error"]["kind"] == "validate", error
            assert "is not a INTEGER" in error["error"]["message"]

    def test_an_integer_past_the_conversion_limit_is_a_parse_400(self, quiet_daemon):
        registry = quiet_daemon.world.registry
        overlong = QUERY.replace("-5", "9" * 5000)
        # Cold, then with its shape's plan cached: the same 400 both times.
        for _ in range(2):
            status, payload = post_query(quiet_daemon, overlong)
            assert status == 400, payload
            assert payload["error"]["kind"] == "parse"
            assert "5000 digits" in payload["error"]["message"]
            post_query(quiet_daemon, QUERY)
        assert registry.counter_value("query.errors", kind="parse") == 2


class TestQueryErrors:
    def test_malformed_json_is_bad_request(self, quiet_daemon):
        status, payload = post(quiet_daemon, "/query", b"{not json")
        assert status == 400
        assert payload["error"]["kind"] == "bad-request"
        assert "not valid JSON" in payload["error"]["message"]

    def test_non_object_body_is_bad_request(self, quiet_daemon):
        status, payload = post(quiet_daemon, "/query", b'["q"]')
        assert status == 400
        assert payload["error"]["kind"] == "bad-request"

    def test_missing_query_field_is_bad_request(self, quiet_daemon):
        status, payload = post(quiet_daemon, "/query", b'{"sql": "select"}')
        assert status == 400
        assert payload["error"]["kind"] == "bad-request"
        assert "non-empty string" in payload["error"]["message"]

    def test_parse_error_is_structured_400(self, quiet_daemon):
        registry = quiet_daemon.world.registry
        status, payload = post_query(
            quiet_daemon, 'select x from x in extent(T0) where x.Payload = "oops'
        )
        assert status == 400
        assert payload["error"]["kind"] == "parse"
        assert "unterminated string literal" in payload["error"]["message"]
        assert registry.counter_value("query.errors", kind="parse") >= 1

    def test_unknown_range_source_is_validate_400(self, quiet_daemon):
        registry = quiet_daemon.world.registry
        status, payload = post_query(quiet_daemon, "select z from z in Nowhere")
        assert status == 400
        assert payload["error"]["kind"] == "validate"
        assert "unknown range source" in payload["error"]["message"]
        assert registry.counter_value("query.errors", kind="validate") >= 1

    def test_unknown_attribute_is_validate_400(self, quiet_daemon):
        status, payload = post_query(
            quiet_daemon, "select x.Ghost from x in extent(T0)"
        )
        assert status == 400
        assert payload["error"]["kind"] == "validate"
        assert "has no attribute 'Ghost'" in payload["error"]["message"]

    def test_post_to_unknown_path_is_404_with_directory(self, quiet_daemon):
        status, payload = post(quiet_daemon, "/nope", b"{}")
        assert status == 404
        assert "POST /query" in payload["endpoints"]

    @pytest.mark.parametrize(
        "target, expected_status, label",
        [
            ("/query?x=1", 200, "/query"),
            ("/nope?x=1", 404, "other"),
            ("/query/x", 404, "other"),
        ],
    )
    def test_route_and_label_agree_on_a_post_target(
        self, quiet_daemon, target, expected_status, label
    ):
        # One split of the target serves both: a query string neither
        # hides the route nor mislabels the 404.
        registry = quiet_daemon.world.registry
        before = routed(registry, label)
        status, payload = post(
            quiet_daemon, target, json.dumps({"query": QUERY}).encode()
        )
        assert status == expected_status
        if status == 404:
            assert payload["error"] == f"unknown path {target!r}"
        assert routed(registry, label) == before + 1


class TestWire:
    """The daemon end of :mod:`repro.httpd` (its own contract: tests/test_httpd.py)."""

    def test_one_kept_alive_connection_carries_three_requests(self, quiet_daemon):
        registry = quiet_daemon.world.registry
        def requests_total() -> int:
            family = registry.snapshot()["histograms"].get("http.latency_ms", [])
            return sum(entry["count"] for entry in family)

        connections = registry.counter_value("http.connections")
        requests = requests_total()
        client = http.client.HTTPConnection(*quiet_daemon.address, timeout=10)
        try:
            for _ in range(2):
                client.request("POST", "/query", body=json.dumps({"query": QUERY}))
                response = client.getresponse()
                body = response.read()
                assert response.status == 200
                # The hot body is the C encoder's: one line.
                assert b"\n" not in body and json.loads(body)["row_count"] > 0
            client.request("GET", "/metrics")
            exposition = client.getresponse().read().decode()
        finally:
            client.close()
        assert "repro_http_connections_total" in exposition
        assert registry.counter_value("http.connections") == connections + 1
        assert requests_total() == requests + 3

    def test_refused_at_the_wire_is_counted_as_rejected(self, quiet_daemon):
        registry = quiet_daemon.world.registry
        before = registry.counter_value("http.rejected")
        other = routed(registry, "other")
        with socket.create_connection(quiet_daemon.address, timeout=10) as conn:
            conn.sendall(b"GARBAGE\r\n\r\n")
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert registry.counter_value("http.rejected") == before + 1
        assert routed(registry, "other") == other  # no route saw it

    def test_shutdown_does_not_wait_out_a_parked_connection(self, quiet_daemon):
        client = http.client.HTTPConnection(*quiet_daemon.address, timeout=10)
        try:
            client.request("GET", "/advisor")
            assert client.getresponse().read()
            started = time.monotonic()
            quiet_daemon.shutdown()  # idempotent: the fixture's is a no-op
            waited = time.monotonic() - started
            assert client.sock.recv(1) == b"", "the parked connection was left open"
        finally:
            client.close()
        # Well under the wire's 5 s idle timeout, drain included.
        assert waited < 2.0

    def test_handler_exception_is_a_counted_500(self, quiet_daemon, monkeypatch):
        def broken(text, trace=None):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(quiet_daemon, "execute_query", broken)
        registry = quiet_daemon.world.registry
        before = routed(registry, "/query")
        host, port = quiet_daemon.address
        request = urllib.request.Request(
            f"http://{host}:{port}/query",
            data=json.dumps({"query": QUERY}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 500
        assert caught.value.read() == json.dumps(
            {"error": repr(RuntimeError("kaboom"))}, indent=2
        ).encode()
        assert routed(registry, "/query") == before + 1


class TestDegradedFallback:
    @pytest.fixture(params=["async"])
    def unhealed_daemon(self, tmp_path):
        config = queries_config(tmp_path)
        config.healer = False  # keep the quarantine in force for the test
        daemon = ServeDaemon(config)
        daemon.start()
        assert wait_until(lambda: daemon.ops_served > 0)
        quiesce(daemon)
        yield daemon
        daemon.shutdown()

    def test_quarantined_asr_degrades_to_traversal_not_an_error(
        self, unhealed_daemon
    ):
        manager = unhealed_daemon.world.manager
        _status, healthy = post_query(unhealed_daemon, QUERY)
        payload_asr = next(
            asr for asr in manager.asrs if str(asr.path).endswith("Payload")
        )
        with manager.lock.write():
            manager._mark_quarantined(payload_asr)
        try:
            status, degraded = post_query(unhealed_daemon, QUERY)
            assert status == 200
            assert degraded["cached"] is False  # quarantine bumped the epoch
            assert "degraded" in degraded["strategy"]
            assert degraded["rows"] == healthy["rows"]
        finally:
            # The trees were never torn; restore state for a clean drain.
            with manager.lock.write():
                manager._mark_consistent(payload_asr)


class TestZeroClients:
    def test_serves_queries_and_replays_nothing(self, tmp_path):
        # ``clients=0`` starts no loop: the front door answers, while no
        # replayed operation ever completes behind it.
        daemon = ServeDaemon(queries_config(tmp_path, clients=0)).start()
        try:
            assert not wait_until(lambda: daemon.ops_served > 0, timeout=0.3)
            status, payload = post_query(daemon, QUERY)
            assert status == 200
            assert payload["row_count"] > 0
            status, again = post_query(daemon, QUERY)
            assert status == 200 and again["cached"] is True
        finally:
            report = daemon.shutdown()
        assert report["ops_served"] == 0
        assert report["operations"] == {}
        assert "op.latency_ms" not in report["metrics"]["histograms"]
        assert report["accounting"]["ok"] is True
        assert report["drained"]["errors"] == []
