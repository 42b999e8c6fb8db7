"""Advisor + chaos: the design keeps retuning while faults land.

The scenario the resilience layer and the adaptive layer must survive
*together*: eight serve workers replay a mixed stream, the chaos
controller strikes the update path, the healer drains quarantine, and
the advisor re-materializes the chain ASR online — all at once.  The
gates mirror the advisor soak's (``test_bench_advisor.py``):
``/healthz`` never hard-down,
accounting and ASR consistency hold through a retune, and the epoch
proof shows a pre-retune compiled plan can never be served afterwards.
"""

import json
import re
import time
import urllib.request

from repro.bench.serve import ServeConfig
from repro.resilience import ChaosConfig, RecoveryPolicy
from repro.server import ServeDaemon, ServerConfig
from repro.workload.opstream import select_stream
from repro.workload.profiles import FIG14_MIX


def _http_json(url: str, body: dict | None = None) -> tuple[int, dict]:
    request = urllib.request.Request(url)
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, data=data, timeout=10) as response:
        return response.status, json.load(response)


def _config() -> ServerConfig:
    return ServerConfig(
        serve=ServeConfig(
            clients=8,
            ops=64,
            seed=11,
            capacity=64,
            io_micros=20.0,
            # Phase 2's selects have no ASR on their path, so each is a
            # charged extent scan (every page touch takes the pool's
            # lock): keep the queue the final drain must empty short.
            max_inflight=32,
        ),
        port=0,
        recovery=RecoveryPolicy(backoff_s=0.001, jitter=0.25),
        healer=True,
        healer_interval=0.01,
        chaos=ChaosConfig(rate=0.3, burst=2, seed=11),
        advisor_interval=0.05,
        advisor_threshold=1.05,
        advisor_min_ops=32,
    )


class TestAdvisorUnderChaos:
    def test_retune_lands_while_chaos_strikes(self):
        daemon = ServeDaemon(_config()).start()
        try:
            world = daemon.world
            manager = world.manager
            advisor = daemon.advisor
            chaos = daemon.chaos
            host, port = daemon.address
            base = f"http://{host}:{port}"
            healthz: list[int] = []

            def probe() -> None:
                status, _payload = _http_json(f"{base}/healthz")
                healthz.append(status)

            # Phase 1 — storm: advisor must retune while strikes land.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                probe()
                if advisor.retunes >= 1 and chaos.strikes >= 1:
                    break
                time.sleep(0.1)
            assert advisor.retunes >= 1, advisor.describe()
            assert chaos.strikes >= 1, chaos.describe()
            # Never hard-down: transient quarantine is the healer's job.
            assert healthz and all(status == 200 for status in healthz)

            # The retune is visible at the front door, not just in-process.
            status, payload = _http_json(f"{base}/advisor")
            assert status == 200
            assert payload["retunes"] >= 1
            assert payload["history"][-1]["applied"] is True
            assert payload["history"][-1]["to"] == payload["design"]

            # Phase 2 — quiesce: disarm chaos, stop the loop, go
            # pure-query (epoch freezes: no update flushes), let the
            # healer drain whatever the storm quarantined.
            chaos.stop()
            advisor.stop()
            # The replay reads ``_stream`` once per admitted operation,
            # so one rebinding is the live mix shift.
            daemon._stream = select_stream(
                world.generated,
                FIG14_MIX,
                count=64,
                seed=12,
                query_fraction=1.0,
            )
            world.recorder.reset()
            settle = time.monotonic() + 30.0
            while time.monotonic() < settle:
                if not manager.quarantined:
                    break
                time.sleep(0.02)
            assert not manager.quarantined
            time.sleep(0.5)  # drain in-flight update flushes
            manager.check_consistency()  # consistent *through* the retune
            probe()
            assert healthz[-1] == 200  # accounting holds post-storm

            # Phase 3 — epoch proof over real HTTP: a plan warmed before
            # the retune must recompile after it.  The storm's measured
            # mix skews query-heavy (strikes abort update flushes), so
            # the design parked at an undecomposed winner; seed the
            # recorder with an update-leaning mix whose cost-model
            # winner is a decomposed design — the *evidence* shifts
            # while the live stream stays pure-query, so every epoch
            # move below is the retune's.
            recorder = world.recorder
            path = world.generated.path
            # Counts dwarf what the live workers record in the window
            # between seeding and the sweep, so the mix holds ~75/25 —
            # the region where a decomposed FULL wins decisively (below
            # ~0.18 updates the current design is kept; above ~0.29 the
            # no-ASR baseline wins and the loop refuses it).
            recorder.record_query(0, path.n, "bw", count=350_000)
            recorder.record_query(0, 2, "bw", count=175_000)
            recorder.record_query(1, path.n, "fw", count=175_000)
            for edge in range(path.n):
                recorder.record_update(edge, count=58_000)
            # Over its own range variable: a shape the live replay never
            # sends, so the replay cannot re-plan it first after the bump.
            probe_text = re.sub(
                r"\bx\b",
                "probe",
                select_stream(
                    world.generated, FIG14_MIX, count=1, seed=77, query_fraction=1.0
                )[0].text,
            )
            _status, first = _http_json(f"{base}/query", {"query": probe_text})
            _status, warmed = _http_json(f"{base}/query", {"query": probe_text})
            assert warmed["cached"] is True
            epoch_before = manager.epoch
            assert advisor.sweep(force=True), advisor.describe()
            manager.check_consistency()
            assert manager.epoch == epoch_before + 1  # exactly one bump
            _status, after = _http_json(f"{base}/query", {"query": probe_text})
            assert after["cached"] is False  # pre-retune plan unreachable
            assert after["epoch"] == manager.epoch
            assert after["rows"] == first["rows"]
        finally:
            report = daemon.shutdown()
        assert report["accounting"]["ok"]
        assert report["drained"]["errors"] == []
        assert report["resilience"]["end_state"]["consistent"]
        assert report["resilience"]["end_state"]["quarantined"] == []
