"""``repro bench chaos`` — the SLO-gated chaos soak (DESIGN §13).

The robustness analogue of ``repro bench serve``: instead of asking
"how fast is the daemon", it asks "does the daemon keep its promises
while faults land".  One :class:`~repro.server.ServeDaemon` runs with
chaos armed (:class:`~repro.resilience.chaos.ChaosController` striking
the fault injector from the live op stream) and the
:class:`~repro.resilience.healer.HealerLoop` racing it, in four phases:

1. **storm** — serve under fire until ``soak_ops`` operations completed
   *and* ``min_recoveries`` healer recoveries happened (capped at
   ``soak_seconds``);
2. **settle** — chaos disarms, the healer drains the quarantine set
   (capped at ``settle_seconds``);
3. **probe** — ``GET /healthz`` over real HTTP, recording the status
   code the liveness probe would have seen;
4. **drain** — graceful shutdown, end-state consistency check.

``BENCH_chaos.json`` records overall p50/p95/p99 latency, hit rate,
strike/fault/recovery counts, MTTR, breaker transitions, deadline and
admission sheds, the healthz verdict, and the end state — the numbers
the CI ``chaos-soak-smoke`` job gates on.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field

from repro.bench.serve import OpSample, ServeConfig, _percentile, write_report
from repro.resilience import ChaosConfig, RecoveryPolicy
from repro.server import ServeDaemon, ServerConfig

__all__ = ["ChaosBenchConfig", "run_chaos", "write_report"]


@dataclass
class ChaosBenchConfig:
    """Knobs of one chaos soak (all reachable from ``repro bench chaos``)."""

    serve: ServeConfig = field(default_factory=ServeConfig)
    chaos: ChaosConfig = field(default_factory=lambda: ChaosConfig(rate=0.25))
    recovery: RecoveryPolicy = field(
        default_factory=lambda: RecoveryPolicy(backoff_s=0.01, jitter=0.25)
    )
    #: Seconds between healer sweeps — tight, so MTTR reflects the
    #: healer, not its polling interval.
    healer_interval: float = 0.05
    #: Operations the storm phase must serve before moving on.
    soak_ops: int = 400
    #: Healer recoveries the storm phase waits for (the soak is
    #: pointless if nothing ever broke).
    min_recoveries: int = 1
    #: Wall-clock cap on the storm phase, seconds.
    soak_seconds: float = 60.0
    #: Wall-clock cap on the settle phase, seconds.
    settle_seconds: float = 10.0
    out: str = "BENCH_chaos.json"


def _overall_latency(samples: list[OpSample]) -> dict:
    latencies = sorted(sample.latency_s for sample in samples)
    return {
        "count": len(latencies),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "mean_ms": round(
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0, 3
        ),
    }


def run_chaos(config: ChaosBenchConfig | None = None) -> dict:
    """Run the soak; returns the JSON-able ``BENCH_chaos.json`` report."""
    config = config or ChaosBenchConfig()
    server_config = ServerConfig(
        serve=config.serve,
        port=0,
        drift_interval=0.5,
        out=config.out,  # the daemon's drain report; overwritten below
        recovery=config.recovery,
        healer=True,
        healer_interval=config.healer_interval,
        chaos=config.chaos,
    )
    daemon = ServeDaemon(server_config).start()
    try:
        # Phase 1 — storm: serve under fire until the soak targets hold.
        storm_started = time.monotonic()
        deadline = storm_started + max(1.0, config.soak_seconds)
        while time.monotonic() < deadline:
            if (
                daemon.ops_served >= config.soak_ops
                and daemon.healer.recoveries >= config.min_recoveries
            ):
                break
            time.sleep(0.02)
        storm_seconds = time.monotonic() - storm_started
        # Phase 2 — settle: no new faults; the healer drains quarantine.
        daemon.chaos.stop()
        settle_deadline = time.monotonic() + max(0.1, config.settle_seconds)
        while time.monotonic() < settle_deadline:
            if not daemon.world.manager.quarantined:
                break
            time.sleep(0.02)
        # Phase 3 — probe /healthz over real HTTP (the probe's view).
        host, port = daemon.address
        try:
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=10
            ) as response:
                healthz_status = response.status
                healthz = json.load(response)
        except urllib.error.HTTPError as error:  # 503 still carries JSON
            healthz_status = error.code
            healthz = json.load(error)
        with daemon._samples_lock:
            samples = list(daemon._samples)
    finally:
        # Phase 4 — drain (disarms chaos and final-sweeps the healer
        # again; both are idempotent).
        report = daemon.shutdown()
    resilience = report["resilience"]
    ops_served = report["ops_served"]
    return {
        "benchmark": "chaos",
        "config": {
            **asdict(config.serve),
            "chaos_rate": config.chaos.rate,
            "chaos_burst": config.chaos.burst,
            "chaos_points": [f"{n}:{k}" for n, k in config.chaos.points],
            "healer_interval": config.healer_interval,
            "recovery": {
                "max_retries": config.recovery.max_retries,
                "backoff_s": config.recovery.backoff_s,
                "jitter": config.recovery.jitter,
                "episode_attempts": config.recovery.episode_attempts,
            },
            "soak_ops": config.soak_ops,
            "min_recoveries": config.min_recoveries,
        },
        "soak": {
            "storm_seconds": round(storm_seconds, 3),
            "ops_served": ops_served,
            "throughput_ops_per_s": round(
                ops_served / storm_seconds if storm_seconds else 0.0, 2
            ),
            "sampled_operations": len(samples),
        },
        "latency_ms": _overall_latency(samples),
        "hit_rate": report["pool"]["hit_rate"],
        "chaos": resilience["chaos"],
        "healer": resilience["healer"],
        "breakers": resilience["breakers"],
        "deadline_shed": resilience["deadline_shed"],
        "chaos_casualties": resilience["chaos_casualties"],
        "admission": resilience["admission"],
        "healthz": {
            "status": healthz_status,
            "ok": bool(healthz.get("ok")),
            "healing": healthz.get("healing", []),
            "quarantined_hard": healthz.get("quarantined_hard", []),
        },
        "end_state": {
            **resilience["end_state"],
            "accounting_ok": bool(report["accounting"]["ok"]),
            "drain_errors": report["drained"]["errors"],
        },
        "operations": report["operations"],
        "daemon": {"uptime_seconds": report["uptime_seconds"]},
        "metrics": report["metrics"],
        "drift": report["drift"],
    }

