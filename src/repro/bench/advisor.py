"""``repro bench advisor`` — the SLO-gated self-tuning soak (DESIGN §15).

Where ``bench chaos`` asks "does the daemon keep its promises while
faults land", this soak asks "does the physical design follow the
workload".  One :class:`~repro.server.ServeDaemon` runs with the
background :class:`~repro.resilience.advisor.AdvisorLoop` armed, and the
soak walks it through a seeded mix shift:

1. **query-heavy convergence** — the stream is almost all long
   backward queries; the advisor must abandon the daemon's initial
   undecomposed FULL design for the mix's cost-model winner;
2. **shift** — :meth:`~repro.server.ServeDaemon.set_stream` swaps in an
   update-heavier stream (and the recorder resets, marking the regime
   change); the advisor must re-converge to the new winner — a finer
   decomposition, cheaper to maintain — within two *decisive* sweeps
   (sweeps that saw enough evidence and were out of cooldown);
3. **rollback** — a fault armed at ``asr.retune.build`` fails the next
   rebuild mid-build; the gate: the old ASR is still registered,
   serving, and consistent, and the epoch did not move;
4. **epoch proof** — the fault disarmed, the retune is re-driven and
   must bump the manager epoch *exactly once*; a ``POST /query`` text
   warmed into the compiled-plan cache before the retune must recompile
   after it (``cached: false`` at the new epoch) — the epoch-keyed
   cache makes a stale-epoch hit structurally impossible, and this
   probes it end to end over real HTTP.

``/healthz`` is probed over HTTP at every phase boundary and must
answer 200 throughout; the drain gate re-checks accounting and ASR
consistency.  ``BENCH_advisor.json`` records every phase verdict, the
advisor's decision history, and the epoch proof — the numbers the CI
``advisor-smoke`` job gates on.  Exit 0 iff every gate holds.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass, field, replace

from repro.bench.serve import ServeConfig, write_report
from repro.faults import FaultInjector
from repro.server import ServeDaemon, ServerConfig
from repro.workload.opstream import operation_stream, select_stream
from repro.workload.profiles import FIG14_MIX

__all__ = ["AdvisorBenchConfig", "run_advisor", "write_report"]

#: Sweep rejections that do *not* count against convergence: the loop
#: was still gathering evidence or deliberately pacing itself.
_PATIENT_REASONS = ("insufficient-ops", "cooldown")


@dataclass
class AdvisorBenchConfig:
    """Knobs of one advisor soak (all reachable from ``repro bench advisor``)."""

    serve: ServeConfig = field(default_factory=ServeConfig)
    #: Seconds between advisor sweeps — tight, so convergence reflects
    #: the decision gates, not the polling interval.
    advisor_interval: float = 0.25
    #: Hysteresis the soak's retunes must clear.  The update-heavy
    #: phase's materialized winner beats the query-heavy design by only
    #: ~1.13× on the small serve world (the *overall* winner there is
    #: "no ASR", which the loop refuses to de-materialize), so the soak
    #: defaults below the serve daemon's 1.2.
    advisor_threshold: float = 1.05
    #: Evidence floor per sweep.
    advisor_min_ops: int = 64
    #: Stream fraction that is queries in the query-heavy phases.
    query_heavy_fraction: float = 0.95
    #: Stream fraction that is queries after the mid-run shift.  0.7
    #: keeps the materialized LEFT designs ahead of the no-ASR baseline
    #: while flipping the preferred decomposition to a finer one.
    update_heavy_fraction: float = 0.7
    #: Wall-clock cap on each convergence phase, seconds.
    phase_seconds: float = 20.0
    #: Decisive sweeps a phase may burn before its retune ("within two
    #: sweep intervals" — evidence-gathering and cooldown sweeps are
    #: patience, not indecision).
    max_decisive_sweeps: int = 2
    out: str = "BENCH_advisor.json"


def _http_json(url: str, body: dict | None = None) -> tuple[int, dict]:
    """GET (or POST ``body`` as JSON) and decode the JSON response."""
    request = urllib.request.Request(url)
    data = None
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, data=data, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:  # non-200 still carries JSON
        return error.code, json.load(error)


def _design_of(advisor) -> dict:
    return dict(advisor.describe()["design"])


def _await_retunes(advisor, target: int, deadline_s: float) -> float:
    """Poll until ``advisor.retunes >= target``; return elapsed seconds."""
    started = time.monotonic()
    deadline = started + max(1.0, deadline_s)
    while time.monotonic() < deadline:
        if advisor.retunes >= target:
            break
        time.sleep(0.02)
    return time.monotonic() - started


def _decisive_delta(before: dict, after: dict) -> int:
    """Convergence-relevant rejections accumulated between snapshots."""
    return sum(
        after.get(reason, 0) - before.get(reason, 0)
        for reason in set(after) | set(before)
        if reason not in _PATIENT_REASONS
    )


def run_advisor(config: AdvisorBenchConfig | None = None) -> dict:
    """Run the soak; returns the JSON-able ``BENCH_advisor.json`` report."""
    config = config or AdvisorBenchConfig()
    # The daemon's initial stream must be the query-heavy phase's: the
    # shared ServeConfig default (0.8 queries) already prefers the finer
    # decomposition the *shift* is supposed to move to.
    # A short admission queue: operations admitted before a shift still
    # run after it, and a backlog longer than a sweep interval's worth
    # would blend the old mix into the new regime's evidence.
    serve_config = replace(
        config.serve,
        query_fraction=config.query_heavy_fraction,
        max_inflight=min(config.serve.max_inflight, 16),
    )
    server_config = ServerConfig(
        serve=serve_config,
        port=0,
        drift_interval=0.5,
        out=config.out,  # the daemon's drain report; overwritten below
        healer=True,
        advisor_interval=config.advisor_interval,
        advisor_threshold=config.advisor_threshold,
        advisor_min_ops=config.advisor_min_ops,
    )
    daemon = ServeDaemon(server_config).start()
    world = daemon.world
    advisor = daemon.advisor
    manager = world.manager
    healthz_statuses: list[int] = []
    phases: list[dict] = []
    host, port = daemon.address
    base = f"http://{host}:{port}"

    def probe_healthz() -> None:
        status, _payload = _http_json(f"{base}/healthz")
        healthz_statuses.append(status)

    def stream_for(query_fraction: float, seed: int) -> list:
        if config.serve.profile == "queries":
            return select_stream(
                world.generated,
                FIG14_MIX,
                count=config.serve.ops,
                seed=seed,
                query_fraction=query_fraction,
            )
        return operation_stream(
            world.generated,
            FIG14_MIX,
            count=config.serve.ops,
            seed=seed,
            query_fraction=query_fraction,
        )

    def converge(name: str, target_retunes: int) -> dict:
        rejected_before = dict(advisor.describe()["rejected"])
        design_before = _design_of(advisor)
        elapsed = _await_retunes(advisor, target_retunes, config.phase_seconds)
        described = advisor.describe()
        decisive = _decisive_delta(rejected_before, described["rejected"])
        converged = advisor.retunes >= target_retunes
        design = _design_of(advisor)
        probe_healthz()
        phase = {
            "name": name,
            "converged": converged,
            "seconds": round(elapsed, 3),
            "decisive_sweeps": decisive + (1 if converged else 0),
            "from": design_before,
            "design": design,
            "changed": design != design_before,
            "ops_served": daemon.ops_served,
        }
        phases.append(phase)
        return phase

    try:
        probe_healthz()
        # Phase 1 — the query-heavy stream the daemon started with.
        converge("query-heavy", target_retunes=1)
        # Phase 2 — shift update-heavy; the recorder resets so the new
        # regime's evidence is not blended with the old mix's.
        daemon.set_stream(
            stream_for(config.update_heavy_fraction, config.serve.seed + 1)
        )
        world.recorder.reset()
        converge("update-heavy", target_retunes=2)

        # Phase 3 — rollback: shift to a *pure-query* stream (a retune
        # is wanted again, and with no updates in flight the manager
        # epoch goes quiescent — every move below is attributable to the
        # retune alone), stop the loop (manual sweeps from here — no
        # racing thread), arm a one-shot build fault, and sweep.
        daemon.set_stream(stream_for(1.0, config.serve.seed + 2))
        world.recorder.reset()
        evidence_deadline = time.monotonic() + config.phase_seconds
        while time.monotonic() < evidence_deadline:
            if world.recorder.total_operations >= config.advisor_min_ops:
                break
            time.sleep(0.02)
        advisor.stop()
        time.sleep(0.5)  # let phase 2's in-flight updates drain fully
        injector = FaultInjector(seed=config.serve.seed)
        manager.fault_injector = injector
        injector.fault_at("asr.retune.build", times=1)
        asrs_before = len(manager.asrs)
        epoch_before_fault = manager.epoch
        design_before_fault = _design_of(advisor)
        applied_under_fault = advisor.sweep(force=True)
        manager.check_consistency()
        rollback = {
            "ok": (
                not applied_under_fault
                and len(manager.asrs) == asrs_before
                and manager.epoch == epoch_before_fault
                and _design_of(advisor) == design_before_fault
                and advisor.describe()["rejected"].get("build-failed", 0) >= 1
            ),
            "applied_under_fault": applied_under_fault,
            "asrs_before": asrs_before,
            "asrs_after": len(manager.asrs),
            "epoch_before": epoch_before_fault,
            "epoch_after": manager.epoch,
            "design": _design_of(advisor),
        }
        probe_healthz()

        # Phase 4 — epoch proof: warm a compiled plan over real HTTP,
        # re-drive the retune (fault disarmed itself), and show the
        # cache cannot serve the pre-retune plan afterwards.
        probe_text = select_stream(
            world.generated, FIG14_MIX, count=1, seed=77, query_fraction=1.0
        )[0].text
        _status, first = _http_json(f"{base}/query", {"query": probe_text})
        _status, warmed = _http_json(f"{base}/query", {"query": probe_text})
        retunes_before = advisor.retunes
        applied = advisor.sweep(force=True)
        manager.check_consistency()
        _status, after = _http_json(f"{base}/query", {"query": probe_text})
        epoch_proof = {
            "applied": applied,
            "before": epoch_before_fault,
            "after": manager.epoch,
            "single_bump": manager.epoch == epoch_before_fault + 1,
            "warmed_cached": bool(warmed.get("cached")),
            "post_retune_miss": not after.get("cached", True),
            "post_retune_epoch": after.get("epoch"),
            "epoch_current": after.get("epoch") == manager.epoch,
            "rows_stable": first.get("rows") == after.get("rows"),
        }
        phases.append(
            {
                "name": "re-converge",
                "converged": applied and advisor.retunes == retunes_before + 1,
                "seconds": 0.0,
                "design": _design_of(advisor),
                "changed": _design_of(advisor) != design_before_fault,
                "ops_served": daemon.ops_served,
            }
        )
        probe_healthz()
        advisor_state = advisor.describe()
    finally:
        report = daemon.shutdown()

    resilience = report["resilience"]
    end_state = {
        **resilience["end_state"],
        "accounting_ok": bool(report["accounting"]["ok"]),
        "drain_errors": report["drained"]["errors"],
    }
    convergence_ok = all(
        phase["converged"]
        and phase.get("decisive_sweeps", 0) <= config.max_decisive_sweeps
        for phase in phases
    )
    designs_moved = all(
        phase["changed"] for phase in phases if "changed" in phase
    )
    healthz_ok = bool(healthz_statuses) and all(
        status == 200 for status in healthz_statuses
    )
    epoch_ok = (
        epoch_proof["applied"]
        and epoch_proof["single_bump"]
        and epoch_proof["warmed_cached"]
        and epoch_proof["post_retune_miss"]
        and epoch_proof["epoch_current"]
        and epoch_proof["rows_stable"]
    )
    ok = (
        convergence_ok
        and designs_moved
        and rollback["ok"]
        and epoch_ok
        and healthz_ok
        and bool(end_state["consistent"])
        and bool(end_state["accounting_ok"])
    )
    return {
        "benchmark": "advisor",
        "ok": ok,
        "config": {
            **asdict(config.serve),
            "advisor_interval": config.advisor_interval,
            "advisor_threshold": config.advisor_threshold,
            "advisor_min_ops": config.advisor_min_ops,
            "query_heavy_fraction": config.query_heavy_fraction,
            "update_heavy_fraction": config.update_heavy_fraction,
            "phase_seconds": config.phase_seconds,
            "max_decisive_sweeps": config.max_decisive_sweeps,
        },
        "phases": phases,
        "rollback": rollback,
        "epoch_proof": epoch_proof,
        "advisor": advisor_state,
        "healthz": {
            "probes": len(healthz_statuses),
            "statuses": healthz_statuses,
            "all_ok": healthz_ok,
        },
        "end_state": end_state,
        "ops_served": report["ops_served"],
        "uptime_seconds": report["uptime_seconds"],
        "metrics": report["metrics"],
    }

