"""A degraded ``POST /query`` is correct, slower, *and charged*.

The text door lowers its predicate to ``Q_{i,j}`` and ``Planner.run``
answers it whatever the state of the index: with the payload ASR
quarantined the request pays Eq. 32's extent scan — pages in the
response, device time in the trace — instead of getting cheaper.
"""

from repro.server import ServeDaemon

from tests.telemetry.test_one_span_model import measured_pages
from tests.test_server_trace import http_get, post_query, traced_config


def test_quarantined_post_query_is_charged_for_the_scan(tmp_path):
    config = traced_config(tmp_path, clients=0, io_dist="fixed", io_micros=20.0)
    config.healer = False  # keep the quarantine in force for the test
    daemon = ServeDaemon(config).start()
    try:
        world = daemon.world
        manager, generated = world.manager, world.generated
        value = generated.db.attr(generated.layers[generated.n][0], "Payload")
        hops = ".".join(["A"] * generated.n + ["Payload"])
        text = f"select x from x in extent(T0) where x.{hops} = {value}"
        status, healthy = post_query(daemon, text)
        assert status == 200 and healthy["row_count"] > 0
        assert healthy["strategy"].startswith("asr-backward via ")
        payload_asr = next(
            asr for asr in manager.asrs if str(asr.path).endswith("Payload")
        )
        with manager.lock.write():
            manager._mark_quarantined(payload_asr)
        try:
            status, degraded = post_query(daemon, text)
        finally:
            # The trees were never torn; restore state for a clean drain.
            with manager.lock.write():
                manager._mark_consistent(payload_asr)
        assert status == 200
        assert degraded["rows"] == healthy["rows"]
        assert degraded["strategy"] == (
            "nested-loop traversal (degraded: ASR quarantined)"
        )
        assert degraded["total_pages"] > healthy["total_pages"] > 0
        _status, trace = http_get(daemon, f"/trace/{degraded['trace_id']}")
        assert trace["outcome"] == "degraded"
        assert "device" in trace["phases"]
        assert measured_pages(trace["spans"]) == degraded["total_pages"]
        names = {span["name"] for span in trace["spans"]}
        assert {"query.unsupported.bw", "device.charge"} <= names
    finally:
        report = daemon.shutdown()
    assert report["drained"]["errors"] == []
