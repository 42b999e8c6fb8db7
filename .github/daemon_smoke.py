"""One daemon process, every endpoint: the CI ``daemon-smoke`` job.

Starts one ``repro serve`` (disk-class device, a 16-page pool, 8
operations in flight over 2 executor threads, textual selects only,
every trace retained, a dry-run advisor sweeping every 0.5 s) and
checks, over real HTTP:

* two ``/metrics`` scrapes are monotone, ``repro_inflight`` exceeds the
  executor threads, ``/healthz`` is 200, ``/stats`` responds;
* ``/advisor`` reports the advisor enabled, at least one sweep, no
  retune and the design it started with — the ``--advisor-*`` flags
  reach the loop;
* a repeated ``POST /query`` comes back ``cached: true`` with the same
  rows, so does the same shape with a literal never sent before, and a
  bad query gets a structured parse 400;
* the first, cache-missing ``POST /query`` shows on the next scrape: its
  ``plan.*`` count, its ``span.pages`` observation and its
  ``asr.lookups`` (or ``plan.unsupported``) count were published to the
  request's pool context and folded into the registry at its release;
  that scrape, with no wait, also reads ``repro_accounting_ok 1`` and
  the drift monitor's overall ratio (no background thread writes them:
  a scrape checks and computes them itself);
* three requests share one keep-alive connection (the
  ``http.latency_ms`` count, summed over endpoints, rises by 3 and
  ``http.connections`` by 1), and ``GARBAGE`` is refused at the wire
  with a 400 that ``http.rejected`` counts;
* ``/trace/<id>`` phases cover >= 90% of the request and its measured
  rows sum to ``total_pages``; ``/trace/recent`` has a queue phase;
* SIGTERM exits 0 with a clean drain report, which ``repro stats --in``
  renders.

The exact plan-cache hit count is tier-1's (``tests/test_server_query.py``
runs a ``--clients 0`` daemon).  Run from the repository root:
``python .github/daemon_smoke.py``.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

#: The paper's Query 1 analogue over the served chain.  The replayed
#: stream puts its literals on the right, so the replay cannot pre-warm
#: this shape's plan.
QUERY = "select x from x in extent(T0) where -5 <= x.A.A.A.A.Payload"


def get(addr: str, path: str) -> str:
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=10) as response:
        assert response.status == 200, (path, response.status)
        return response.read().decode()


def post_query(addr: str, text: str) -> tuple[int, dict]:
    request = urllib.request.Request(
        f"http://{addr}/query",
        data=json.dumps({"query": text}).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def scrape(exposition: str, name: str) -> float:
    """The sum of every sample of metric ``name`` in an exposition."""
    return sum(
        float(line.rsplit(" ", 1)[1])
        for line in exposition.splitlines()
        if line.split("{")[0].split(" ")[0] == name
    )


def check_scrapes(addr: str) -> None:
    first = scrape(get(addr, "/metrics"), "repro_op_latency_ms_count")
    time.sleep(1.0)
    second = scrape(get(addr, "/metrics"), "repro_op_latency_ms_count")
    assert second > first > 0, f"counters not monotone: {first} -> {second}"
    # An operation awaiting its device charge holds no thread, so more
    # operations are in flight than there are executor threads.
    peak, deadline = 0.0, time.monotonic() + 30.0
    while peak <= 2 and time.monotonic() < deadline:
        exposition = get(addr, "/metrics")
        peak = max(peak, scrape(exposition, "repro_inflight"))
        time.sleep(0.05)
    assert peak > 2, f"inflight never exceeded --clients: peak={peak}"
    assert "repro_queue_depth" in exposition
    health = json.loads(get(addr, "/healthz"))
    assert health["ok"] is True, health
    assert set(json.loads(get(addr, "/stats"))) == {"metrics", "drift", "accounting"}
    print(f"scrapes ok: ops {first} -> {second}, peak inflight {peak}")


def check_advisor(addr: str) -> None:
    first = advisor = json.loads(get(addr, "/advisor"))
    assert first["enabled"] is True and first["dry_run"] is True, first
    assert first["interval_s"] == 0.5, first
    deadline = time.monotonic() + 30.0
    while advisor["sweeps"] < 1:
        assert time.monotonic() < deadline, f"the advisor never swept: {advisor}"
        time.sleep(0.1)
        advisor = json.loads(get(addr, "/advisor"))
    assert advisor["retunes"] == 0, advisor
    assert first["design"]["extension"] == "full", first["design"]
    assert advisor["design"] == first["design"], (first["design"], advisor["design"])
    print(f"advisor ok: {advisor['sweeps']} dry-run sweep(s), "
          f"rejected {advisor['rejected']}, design {advisor['design']}")


def plan_counts(exposition: str) -> dict[str, float]:
    """``op -> value`` of every ``repro_ops_total{op="plan.…"}`` sample."""
    return {
        line.split('"')[1]: float(line.rsplit(" ", 1)[1])
        for line in exposition.splitlines()
        if line.startswith('repro_ops_total{op="plan.')
    }


def check_folded(before: str, after: str, response: dict) -> None:
    """What one cache-missing query published is on the next scrape.

    The replay compiles its plans once, so only the miss counts a
    ``plan.*`` decision; the query's context was a per-request pool
    context, released before the response, so its counts were folded.
    """
    plans_before, plans_after = plan_counts(before), plan_counts(after)
    assert sum(plans_after.values()) > sum(plans_before.values()), (
        plans_before, plans_after)
    pages = "repro_span_pages_count"
    assert scrape(after, pages) > scrape(before, pages), pages
    if response["strategy"].startswith("asr"):
        lookups = "repro_asr_lookups_total"
        assert scrape(after, lookups) > scrape(before, lookups), lookups
    else:
        unsupported = "plan.unsupported"
        assert plans_after.get(unsupported, 0) > plans_before.get(unsupported, 0)


def check_queries(addr: str) -> dict:
    before = get(addr, "/metrics")
    status, first = post_query(addr, QUERY)
    assert status == 200 and first["cached"] is False, (status, first)
    assert first["row_count"] > 0, first
    after = get(addr, "/metrics")
    check_folded(before, after, first)
    assert scrape(after, "repro_accounting_ok") == 1, "accounting not read"
    assert any(
        line.startswith("repro_drift_overall_geo_mean_ratio ")
        for line in after.splitlines()
    ), "no drift ratio on the scrape"
    status, second = post_query(addr, QUERY)
    assert status == 200 and second["cached"] is True, (status, second)
    assert second["rows"] == first["rows"], "the cache changed the answer"
    # Plans are cached per shape: a literal never sent before binds into it.
    status, unseen = post_query(addr, QUERY.replace("-5", "-9"))
    assert status == 200 and unseen["cached"] is True, (status, unseen)
    status, error = post_query(
        addr, 'select x from x in extent(T0) where x.Payload = "oops'
    )
    assert status == 400 and error["error"]["kind"] == "parse", error
    assert "unterminated string literal" in error["error"]["message"], error
    print(f"queries ok: {first['row_count']} rows via {first['strategy']!r}")
    return first


def check_wire(addr: str) -> None:
    # Three requests on one connection.  Both readings are expositions,
    # which never count their own request: since the urllib scrape (its
    # own connection already accepted) the third request below sees that
    # scrape, the two POSTs and one new connection.
    before = get(addr, "/metrics")
    host, port = addr.rsplit(":", 1)
    client = http.client.HTTPConnection(host, int(port), timeout=10)
    for _ in range(2):
        client.request("POST", "/query", body=json.dumps({"query": QUERY}))
        response = client.getresponse()
        assert response.status == 200 and json.loads(response.read())["cached"]
    client.request("GET", "/metrics")
    after = client.getresponse().read().decode()
    client.close()
    # The latency histogram's count is the request count, per endpoint.
    rose = {
        name: scrape(after, name) - scrape(before, name)
        for name in ("repro_http_latency_ms_count", "repro_http_connections_total")
    }
    assert rose == {
        "repro_http_latency_ms_count": 3,
        "repro_http_connections_total": 1,
    }, rose
    # Refused at the wire: a status, then the connection is closed.
    rejected = scrape(after, "repro_http_rejected_total")
    with socket.create_connection((host, int(port)), timeout=10) as raw:
        raw.sendall(b"GARBAGE\r\n\r\n")
        reply = b""
        while chunk := raw.recv(65536):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
    refused = scrape(get(addr, "/metrics"), "repro_http_rejected_total") - rejected
    assert refused == 1, f"http.rejected rose by {refused}, not 1"
    print("wire ok: 3 requests on 1 connection, GARBAGE -> 400 (counted)")


def check_traces(addr: str, response: dict) -> None:
    trace = json.loads(get(addr, f"/trace/{response['trace_id']}"))
    assert trace["outcome"] == "ok", trace
    covered = sum(trace["phases"].values())
    assert covered >= 0.9 * trace["duration_ms"], (
        f"phases cover {covered:.3f}ms of {trace['duration_ms']:.3f}ms"
    )
    expected = {"plan", "execute", "serialize"} | (
        {"device"} if response["total_pages"] else set()
    )
    assert expected <= set(trace["phases"]), trace["phases"]
    # One span model: every row is <layer>.<what>, and the measured rows
    # (seconds and pages together) account for the response.
    spans = trace["spans"]
    layers = ("storage.", "asr.", "gom.", "query.", "concurrency.",
              "device.", "serve.", "server.")
    stray = [s["name"] for s in spans if not s["name"].startswith(layers)]
    assert not stray, f"row names outside <layer>.<what>: {stray}"

    def nested(span) -> bool:  # inside a measured row: already in its delta
        parent = span["parent"]
        while parent is not None:
            if "page_reads" in spans[parent]:
                return True
            parent = spans[parent]["parent"]
        return False

    measured = sum(
        s["page_reads"] + s["page_writes"]
        for s in spans if "page_reads" in s and not nested(s)
    )
    assert measured == response["total_pages"], (measured, response["total_pages"])
    recent = json.loads(get(addr, "/trace/recent?limit=100"))
    assert recent["tracing"]["enabled"] is True, recent["tracing"]
    assert any(
        "queue" in t["phases"] for t in recent["traces"] if t["name"] != "POST /query"
    ), "no replayed-op trace carries a queue phase"
    metrics = get(addr, "/metrics")
    for name in ("repro_http_latency_ms_bucket", "repro_query_latency_ms_quantile"):
        assert name in metrics, name
    print(f"traces ok: {covered / trace['duration_ms']:.1%} of "
          f"{trace['duration_ms']:.1f}ms across {sorted(trace['phases'])}")


def check_report(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    assert report["mode"] == "daemon", report.get("mode")
    assert report["accounting"]["ok"] is True, report["accounting"]
    assert report["drained"]["errors"] == [], report["drained"]
    assert report["ops_served"] > 0
    assert report["query_cache"]["entries"] > 0, report["query_cache"]
    assert 0.0 <= report["pool"]["hit_rate"] <= 1.0, report["pool"]
    drift = report["drift"]
    assert drift["overall"]["finite"] is True, drift["overall"]
    assert all(math.isfinite(e["geo_mean_ratio"]) for e in drift["by_key"]), drift
    stats = subprocess.run(
        [sys.executable, "-m", "repro", "stats", "--in", path],
        check=True, capture_output=True, text=True,
    ).stdout
    assert "accounting" in stats and "op.latency_ms" in stats, stats
    print(f"drain ok: {report['ops_served']} ops; repro stats renders the report")


def main() -> int:
    started = time.monotonic()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, ("src", os.environ.get("PYTHONPATH")))
    )
    with tempfile.TemporaryDirectory(prefix="daemon-smoke-") as scratch:
        addr_file = os.path.join(scratch, "serve.addr")
        report = os.path.join(scratch, "BENCH_serve_daemon.json")
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--clients", "2", "--capacity", "16", "--io-dist", "disk",
                "--max-inflight", "8", "--profile", "queries",
                "--query-fraction", "1.0", "--trace-sample-rate", "1.0",
                "--slow-trace-ms", "0",
                "--advisor-interval", "0.5", "--advisor-dry-run",
                "--addr-file", addr_file, "--out", report,
            ]
        )
        try:
            deadline = time.monotonic() + 60.0  # the world builds before the bind
            while not (os.path.exists(addr_file) and os.path.getsize(addr_file)):
                assert time.monotonic() < deadline, "daemon never bound"
                assert daemon.poll() is None, f"daemon exited {daemon.returncode}"
                time.sleep(0.2)
            with open(addr_file, encoding="utf-8") as handle:
                addr = handle.read().strip()
            print(f"daemon at {addr}")
            check_scrapes(addr)
            check_advisor(addr)
            # Fetch the trace first: the ring retains the newest 512 only.
            check_traces(addr, check_queries(addr))
            check_wire(addr)
        except BaseException:
            daemon.kill()
            daemon.wait()
            raise
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=30)
        assert code == 0, f"daemon exit code {code}"
        check_report(report)
    print(f"daemon smoke ok in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
