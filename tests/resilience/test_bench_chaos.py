"""The chaos soak: a seeded fault storm against the healer, on one daemon.

One :class:`~repro.server.ServeDaemon` serves with chaos armed (a
:class:`~repro.resilience.ChaosController` striking named fault points
from the live op stream) while the background healer races it: a storm
until enough operations are served *and* the healer has recovered an
ASR, a settle (chaos off, the quarantine set drains and every circuit
breaker closes again), ``/healthz`` over
real HTTP, then the drain.  The gates read the daemon's own state and
drain report.  Latency is the benchmark ladder's business, not this
soak's.
"""

import time
import urllib.request
from dataclasses import replace

import pytest

from repro.bench.serve import ServeConfig
from repro.resilience import ChaosConfig, RecoveryPolicy
from repro.server import ServeDaemon, ServerConfig

from tests.test_cli import run_cli

SOAK = ServerConfig(
    serve=ServeConfig(
        clients=2, ops=32, seed=7, capacity=64, io_micros=20.0,
        max_inflight=16, op_deadline_ms=500.0,
    ),
    port=0,
    recovery=RecoveryPolicy(backoff_s=0.001, jitter=0.25),
    healer_interval=0.01,
    chaos=ChaosConfig(rate=0.5, burst=2, seed=7),
)


def wait_until(predicate, seconds: float) -> bool:
    """Poll ``predicate`` every 20 ms for up to ``seconds``."""
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class TestRunChaos:
    def test_soak_meets_the_slo_gate(self, tmp_path):
        daemon = ServeDaemon(
            replace(SOAK, out=str(tmp_path / "BENCH_serve_daemon.json"))
        ).start()
        try:
            # Storm: serve under fire until 60 operations and one heal.
            assert wait_until(
                lambda: daemon.ops_served >= 60 and daemon.healer.recoveries >= 1,
                30.0,
            )
            # Settle: no new faults; the healer drains the quarantine set.
            daemon.chaos.stop()
            assert wait_until(lambda: not daemon.world.manager.quarantined, 10.0)
            # ... and every breaker closes again: an open one waits out
            # its cooldown, then a half-open probe from the replayed
            # stream closes it.  A probe admitted to a decision whose
            # cheapest plan is the fallback is spent without evidence and
            # the next comes a cooldown later, so this can take several
            # cooldowns (2-12 s when forced open after the storm).
            breakers = daemon.world.breakers
            assert wait_until(lambda: breakers.describe()["open"] == [], 30.0)
            # The probe's view: urlopen raises on a 503.
            host, port = daemon.address
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=10
            ) as response:
                assert response.status == 200
        finally:
            report = daemon.shutdown()
        resilience = report["resilience"]
        assert resilience["end_state"] == {"quarantined": [], "consistent": True}
        assert report["accounting"]["ok"] is True
        assert report["drained"]["errors"] == []
        chaos = resilience["chaos"]
        assert chaos["strikes"] >= 1 and chaos["stopped"] is True
        assert chaos["faults_injected"] >= 1
        healer = resilience["healer"]
        assert healer["recoveries"] >= 1
        assert healer["mttr_ms"]["count"] >= 1
        assert resilience["breakers"]["open"] == []


class TestChaosCLI:
    def test_bench_serve_rejects_chaos_flags(self):
        # The bench command is gone: chaos runs on the daemon only.
        with pytest.raises(SystemExit) as raised:
            run_cli("bench", "serve", "--chaos-rate", "0.5")
        assert raised.value.code == 2

    def test_bad_chaos_point_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            run_cli("serve", "--chaos-crash-points", "asr.apply.bogus")
