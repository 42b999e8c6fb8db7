"""The advisor soak: the physical design follows a shifting workload.

One :class:`~repro.server.ServeDaemon` runs with the background
:class:`~repro.asr.adaptive.AdvisorLoop` armed and is walked
through a seeded mix shift:

1. **query-heavy** — the stream is almost all long backward queries;
   the loop must leave the initial undecomposed FULL design for the
   mix's cost-model winner;
2. **update-heavy** — the daemon's replayed stream is swapped for an
   update-heavier one (the recorder resets, marking the regime
   change); the loop must re-converge to a finer decomposition;
3. **rollback** — a fault armed at ``asr.retune.build`` fails the next
   rebuild mid-build: the old ASR keeps serving and the epoch does not
   move;
4. **epoch proof** — the fault spent, the retune is re-driven and bumps
   the manager epoch exactly once; a ``POST /query`` text warmed into
   the compiled-plan cache before it recompiles after it.

Each convergence phase must land within two *decisive* sweeps (sweeps
that saw enough evidence and were out of cooldown).  ``/healthz``
answers 200 at every phase boundary; the drain re-checks accounting and
ASR consistency.
"""

import json
import time
import urllib.request

import pytest

from repro.bench.serve import ServeConfig
from repro.faults import FaultInjector
from repro.server import ServeDaemon, ServerConfig
from repro.workload.opstream import operation_stream, select_stream
from repro.workload.profiles import FIG14_MIX

from tests.resilience.test_bench_chaos import wait_until
from tests.test_cli import run_cli

#: Sweep rejections that do *not* count against convergence: the loop
#: was still gathering evidence or deliberately pacing itself.
PATIENT_REASONS = ("insufficient-ops", "cooldown")
PHASE_SECONDS = 15.0
MIN_OPS = 64


def http_json(url: str, body: dict | None = None) -> tuple[int, dict]:
    """GET (or POST ``body`` as JSON) and decode the JSON response."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.load(response)


class TestRunAdvisor:
    def test_soak_converges_and_proves_the_epoch(self, tmp_path):
        # The serve-world defaults are load-bearing: the phase mixes were
        # chosen against the default profile's cost landscape.  The
        # daemon starts on the query-heavy stream (0.95 queries); a short
        # admission queue keeps operations admitted before a shift from
        # blending the old mix into the new regime's evidence.  The
        # update-heavy winner beats the query-heavy design by only ~1.13x
        # on this world, so the hysteresis sits below the daemon's 1.2.
        config = ServerConfig(
            serve=ServeConfig(
                seed=7, io_micros=20.0, query_fraction=0.95, max_inflight=16
            ),
            port=0,
            out=str(tmp_path / "BENCH_serve_daemon.json"),
            advisor_interval=0.25,
            advisor_threshold=1.05,
            advisor_min_ops=MIN_OPS,
        )
        daemon = ServeDaemon(config).start()
        world, advisor = daemon.world, daemon.advisor
        manager = world.manager
        host, port = daemon.address
        base = f"http://{host}:{port}"
        healthz: list[int] = []

        def design() -> dict:
            return dict(advisor.describe()["design"])

        def converge(target_retunes: int) -> None:
            """The loop reaches its next retune within two decisive sweeps."""
            rejected_before = dict(advisor.describe()["rejected"])
            design_before = design()
            assert wait_until(lambda: advisor.retunes >= target_retunes, PHASE_SECONDS)
            rejected = advisor.describe()["rejected"]
            decisive = 1 + sum(
                rejected.get(reason, 0) - rejected_before.get(reason, 0)
                for reason in set(rejected) | set(rejected_before)
                if reason not in PATIENT_REASONS
            )
            assert decisive <= 2, rejected
            assert design() != design_before
            healthz.append(http_json(f"{base}/healthz")[0])

        def shift(query_fraction: float, seed: int) -> None:
            # The replay reads ``_stream`` once per admitted operation,
            # so one rebinding is the live mix shift.
            daemon._stream = operation_stream(
                world.generated, FIG14_MIX, count=config.serve.ops,
                seed=seed, query_fraction=query_fraction,
            )
            world.recorder.reset()

        try:
            healthz.append(http_json(f"{base}/healthz")[0])
            converge(target_retunes=1)  # query-heavy
            shift(0.7, seed=8)
            converge(target_retunes=2)  # update-heavy
            # The retunes are visible at the front door, not just in-process.
            _status, payload = http_json(f"{base}/advisor")
            applied = payload["history"][-1]
            assert payload["enabled"] is True and payload["retunes"] >= 2
            assert applied["applied"] is True and applied["from"] != applied["to"]
            assert payload["design"] == applied["to"]
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
                exposition = response.read().decode()
            assert any(
                line.startswith("repro_advisor_retunes_total ")
                and float(line.split()[1]) >= 2
                for line in exposition.splitlines()
            )

            # Rollback: a pure-query stream (a retune is wanted again,
            # and with no updates in flight the epoch goes quiescent),
            # manual sweeps from here, one armed build fault.
            shift(1.0, seed=9)
            assert wait_until(
                lambda: world.recorder.total_operations >= MIN_OPS, PHASE_SECONDS
            )
            advisor.stop()
            time.sleep(0.5)  # the update-heavy phase's in-flight updates drain
            injector = FaultInjector(seed=7)
            manager.fault_injector = injector
            injector.fault_at("asr.retune.build", times=1)
            asrs_before, epoch_before, design_before = (
                len(manager.asrs), manager.epoch, design(),
            )
            assert advisor.sweep(force=True) is False
            manager.check_consistency()
            assert len(manager.asrs) == asrs_before
            assert manager.epoch == epoch_before
            assert design() == design_before
            assert advisor.describe()["rejected"].get("build-failed", 0) >= 1
            healthz.append(http_json(f"{base}/healthz")[0])

            # Epoch proof: warm a compiled plan over HTTP, re-drive the
            # retune, and show the cache cannot serve the old plan.
            text = select_stream(
                world.generated, FIG14_MIX, count=1, seed=77, query_fraction=1.0
            )[0].text
            _status, first = http_json(f"{base}/query", {"query": text})
            _status, warmed = http_json(f"{base}/query", {"query": text})
            retunes_before = advisor.retunes
            assert advisor.sweep(force=True) is True
            manager.check_consistency()
            _status, after = http_json(f"{base}/query", {"query": text})
            assert advisor.retunes == retunes_before + 1
            assert manager.epoch == epoch_before + 1
            assert design() != design_before
            assert warmed["cached"] is True
            assert after["cached"] is False and after["epoch"] == manager.epoch
            assert after["rows"] == first["rows"]
            healthz.append(http_json(f"{base}/healthz")[0])
        finally:
            report = daemon.shutdown()
        assert healthz == [200] * 5
        assert report["resilience"]["end_state"]["consistent"] is True
        assert report["accounting"]["ok"] is True
        assert report["drained"]["errors"] == []
        assert report["advisor"]["retunes"] >= 3


class TestAdvisorCLI:
    def test_bench_serve_rejects_advisor_misuse(self):
        # The bench command is gone: the advisor runs on the daemon only.
        with pytest.raises(SystemExit) as raised:
            run_cli("bench", "advisor", "--advisor-interval", "0.5")
        assert raised.value.code == 2
