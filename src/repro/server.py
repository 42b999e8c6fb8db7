"""`repro serve` — a long-lived serving daemon with HTTP observability.

:class:`ServeDaemon` turns the serving core
(:func:`~repro.bench.serve.build_world` /
:class:`~repro.bench.serve.ServingCore`, DESIGN §12) into a *service*:
one asyncio event loop runs an *admission loop* replaying the seeded
operation stream cyclically into the core's bounded queue (capacity
``--max-inflight``), drained by up to ``max_inflight`` concurrent
operations.  Each operation offloads its CPU-bound core
(:func:`~repro.bench.serve.execute_operation`, locks and pool accounting
on real executor threads) to a bounded ``ThreadPoolExecutor`` of
``clients`` threads, then *awaits* its device charge on the loop.  When
the admission queue is full the arrival is **shed** — counted in
``admission.rejected`` — instead of queueing unboundedly;
``queue.depth``, ``queue.wait_ms``, and ``inflight`` expose the loop's
state to every scrape.  With ``--clients 0`` nothing is replayed and the
daemon serves only its HTTP endpoints.

A pre-threaded HTTP/1.1 listener (:mod:`repro.httpd`: a fixed set of
worker threads blocked in ``accept()`` on one socket, keep-alive, the
request reader and its wire-level refusals) exposes the live registry;
this module keeps the route table (``_ROUTES``) and the handlers, plain
functions from a parsed request to ``(status, content_type, body)``:

``GET /metrics``
    The Prometheus text exposition of the live
    :class:`~repro.telemetry.registry.MetricsRegistry` — scrape it.
    Every value is read when the scrape asks: the accounting gauges
    are checked for it, and the drift gauges are computed from the
    :class:`~repro.telemetry.drift.DriftMonitor`'s entries.
``GET /healthz``
    The accounting invariant (pool misses == the reads + writes
    recorded by retired + live contexts), quarantine state of every managed ASR, and a
    hit-rate sanity check, as JSON.  Any violation turns the response
    into a 503, so a liveness probe catches torn accounting the moment
    it happens instead of at drain time.
``GET /stats``
    The ``repro stats`` JSON payload (metrics snapshot + drift report +
    accounting), computed fresh per request.
``POST /query``
    The query front door: a JSON body ``{"query": "select …"}`` runs
    parse → schema validation → cost-based planning → execution over
    the shared pool and returns rows, the chosen strategy, and the
    page-access cost.  Compiled plans are cached per ``(query shape,
    ASR epoch)`` (:mod:`repro.query.cache`), so a text whose shape —
    the text with its literals abstracted — was seen skips planning
    until a configuration change (registration, re-materialization,
    quarantine or recovery) bumps the epoch; updates do not.  Parse and
    validation failures return a structured 400
    (``{"error": {"kind": …, "message": …}}``).
``GET /advisor``
    The adaptive-design loop's state (DESIGN §15): sweeps, applied and
    rejected retunes (by reason), the current (extension,
    decomposition), the last decision with its predicted gain, and the
    recent retune history.  ``{"enabled": false}`` when the daemon runs
    without ``--advisor-interval``.
``GET /trace/recent`` / ``GET /trace/<id>``
    The retained request traces (DESIGN §14): with tracing enabled
    (``--trace-sample-rate`` / ``--slow-trace-ms``) every front-door
    request — ``POST /query`` and each replayed operation — carries a
    trace whose ``queue`` / ``lock.read`` /
    ``lock.write`` / ``plan`` / ``cache-hit`` / ``execute`` /
    ``device`` / ``serialize`` phases sum to its end-to-end latency.
    ``/trace/recent`` lists summaries newest-first; ``/trace/<id>``
    returns one full span tree — rows named ``<layer>.<what>``, the
    measured ones carrying ``page_reads`` / ``page_writes`` (404 once
    evicted or never retained).

Every routed HTTP request, scrape included, also self-reports:
``http.latency_ms{endpoint}`` times (and, through its count, counts)
``/metrics``, ``/healthz``, ``/stats``, ``/query``, and the
``/trace/*`` family (``/trace/:id`` is one label); unrouted paths are
``endpoint="other"``.  Requests the wire refused (400 / 413 / 431 /
501 / 505) never reach a route and are counted in ``http.rejected``.
``http.connections`` counts accepted connections, so the
``http.latency_ms`` count over ``http.connections`` is the keep-alive
reuse ratio.

``/metrics``, ``/healthz`` and ``/stats`` check accounting
(:meth:`ServeDaemon.check_accounting`) under the manager's *write*
lock — the only quiescent point for the misses-vs-records comparison
while clients are mid-flight.  That is exactly the writer
that the :class:`~repro.concurrency.RWLock` starvation fix protects: a
saturating read stream can no longer park ``/healthz`` forever.

The daemon carries the self-healing resilience layer of DESIGN §13
(:mod:`repro.resilience`): a background :class:`HealerLoop` recovers
quarantined ASRs paced by its :class:`RecoveryPolicy`, an optional
:class:`ChaosController` (``--chaos-rate``) strikes the fault injector
from the live op stream so that healing is continuously exercised,
per-ASR circuit breakers route queries to the degraded GOM-traversal
fallback while a relation keeps faulting, and ``--op-deadline-ms``
sheds queue entries whose deadline expired before execution.
``/healthz`` stays 200 while the healer is actively retrying a
quarantined ASR and degrades to 503 only when it gave up (or is absent).

SIGINT/SIGTERM (or :meth:`ServeDaemon.shutdown`) trigger a graceful
drain: disarm chaos, stop admitting operations, quiesce the serving
core (the admission loop stops and the queued operations finish before
the event loop and executor wind down), run the healer's final forced
sweep, flush the ASR manager's batched maintenance queues, retire every
pool context, and write a final report (``BENCH_serve_daemon.json``) —
``repro stats`` renders it, and its ``resilience`` section records
healer MTTR, chaos strikes, breaker transitions, and the end-state
quarantine set.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from repro.asr.adaptive import AdvisorLoop
from repro.asr.journal import ASRState
from repro.bench.serve import (
    ServeConfig,
    ServeWorld,
    ServingCore,
    build_world,
    operations_table,
    write_report,
)
from repro.errors import ParseError, QueryError, RecoveryError
from repro.faults import FaultInjector
from repro.httpd import Listener, Request
from repro.resilience import (
    ChaosConfig,
    ChaosController,
    HealerLoop,
    RecoveryPolicy,
)
from repro.telemetry.tracing import activate, maybe_span
from repro.workload.opstream import Operation

__all__ = ["ServerConfig", "ServeDaemon"]

#: The admission pump's pause after a shed, in seconds; each pause is
#: drawn uniformly from 50-150% of it (the seeded ``_shed_rng`` jitter).
SHED_BACKOFF_S = 1e-3


@dataclass
class ServerConfig:
    """Knobs of one daemon (all reachable from ``repro serve``)."""

    #: The replayed workload and world shape (stream length ``ops`` is
    #: the *period* of the replay loop, not a total).
    serve: ServeConfig = field(default_factory=ServeConfig)
    host: str = "127.0.0.1"
    #: TCP port for the endpoint; 0 binds an ephemeral one.
    port: int = 8000
    #: Where the final drain report is written (``repro stats`` reads
    #: it by default).
    out: str = "BENCH_serve_daemon.json"
    #: Optional file the daemon writes ``host:port`` into once bound —
    #: how tests and the CI smoke job discover an ephemeral port.
    addr_file: str | None = None
    #: The healer's retry pacing (see :mod:`repro.resilience.policy`).
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: Run a background :class:`~repro.resilience.healer.HealerLoop`
    #: that recovers quarantined ASRs without an operator.
    healer: bool = True
    #: Seconds between healer sweeps of the quarantine set.
    healer_interval: float = 0.25
    #: Live chaos injection regime (``None`` or rate 0 disables).
    chaos: ChaosConfig | None = None
    #: Seconds between :class:`~repro.asr.adaptive.AdvisorLoop` sweeps
    #: re-costing the chain ASR's (extension, decomposition) against the
    #: measured op mix; 0 disables the loop entirely.  Applied retunes
    #: are at least two intervals apart.
    advisor_interval: float = 0.0
    #: Hysteresis: predicted gain (current cost / best cost) a candidate
    #: design must clear before a retune is applied.
    advisor_threshold: float = 1.2
    #: Recorded operations required before a sweep's mix is trusted.
    advisor_min_ops: int = 32
    #: Decide-but-don't-act mode: the loop records what it *would* have
    #: retuned (``GET /advisor``) without touching the physical design.
    advisor_dry_run: bool = False


class ServeDaemon:
    """The long-lived serving process behind ``repro serve``.

    Lifecycle: :meth:`start` builds the world and launches the serving
    core's loop thread and the HTTP threads;
    :meth:`shutdown` drains and writes the final report; :meth:`run` is
    the blocking CLI entry point that wires SIGINT/SIGTERM between the
    two.  Tests drive start/shutdown directly.
    """

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.world: ServeWorld | None = None
        self._core: ServingCore | None = None
        self._stop = threading.Event()
        self._op_index = 0
        self._index_lock = threading.Lock()
        self._stream: list[Operation] = []
        self._loop_thread: threading.Thread | None = None
        self._httpd: Listener | None = None
        self._started_at: float | None = None
        self._errors: list[BaseException] = []
        self._report: dict | None = None
        # --- resilience layer (DESIGN §13) ---
        self._healer: HealerLoop | None = None
        self._chaos: ChaosController | None = None
        # --- adaptive physical design (DESIGN §15) ---
        self._advisor: AdvisorLoop | None = None
        #: Consecutive admission sheds (mutated only on the loop thread;
        #: read by gauges).
        self._shed_streak = 0
        self._max_shed_streak = 0
        self._shed_rng = random.Random(self.config.serve.seed)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Build the world, bind the endpoint, launch the serving core."""
        config = self.config
        self.world = build_world(config.serve)
        self._stream = self.world.stream()
        if config.serve.clients > 0 and not self._stream:
            raise ValueError(
                f"an empty stream (ops={config.serve.ops}) cannot be replayed "
                f"by clients={config.serve.clients}; clients=0 serves HTTP only"
            )
        self._wire_resilience()
        self._core = ServingCore(self.world, chaos=self._chaos)
        self._started_at = time.perf_counter()
        registry = self.world.registry
        registry.gauge_fn(
            "serve.uptime_seconds",
            lambda: time.perf_counter() - self._started_at,
        )
        # Overload visibility: how long the current run of consecutive
        # sheds is, and the worst streak seen — a collapsing daemon
        # shows a growing streak, not just a rising reject counter.
        registry.gauge_fn("admission.shed_streak", lambda: self._shed_streak)
        registry.gauge_fn(
            "admission.max_shed_streak", lambda: self._max_shed_streak
        )
        self._httpd = Listener(
            (config.host, config.port),
            partial(_serve, self),
            on_connect=lambda: registry.inc("http.connections"),
            # Refused at the wire, so no route ever saw it.
            on_reject=lambda: registry.inc("http.rejected"),
        ).start()
        if config.addr_file:
            host, port = self.address
            with open(config.addr_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host}:{port}\n")
        self._loop_thread = threading.Thread(
            target=self._loop_main, name="serve-loop", daemon=True
        )
        self._loop_thread.start()
        return self

    def _wire_resilience(self) -> None:
        """Arm chaos; launch the healer under the recovery policy."""
        config = self.config
        manager = self.world.manager
        registry = self.world.registry
        if config.chaos is not None and config.chaos.enabled:
            # Chaos arms *named* maintenance/recovery points on a
            # dedicated injector — not page-level fault rates, which
            # would escape from arbitrary query evaluation and kill
            # client loops instead of quarantining ASRs.
            injector = FaultInjector(seed=config.chaos.seed)
            manager.fault_injector = injector
            self._chaos = ChaosController(injector, config.chaos, registry)
        if config.healer:
            self._healer = HealerLoop(
                manager,
                policy=config.recovery,
                interval=config.healer_interval,
                registry=registry,
                breakers=self.world.breakers,
                seed=config.serve.seed,
            ).start()
        if config.advisor_interval > 0:
            # The advisor manages the chain ASR — the one every profile
            # replays Q_{i,j} queries and ins_i updates against.  (The
            # "queries" profile's payload-path ASR stays as built: the
            # recorder has no per-range evidence for it.)
            chain_asr = manager.find(self.world.generated.path)[0]
            # It prices from the manager's price list, so each sweep's
            # re-measured profile is the planners' and the drift
            # monitor's too.
            self._advisor = AdvisorLoop(
                manager,
                chain_asr,
                self.world.recorder,
                threshold=config.advisor_threshold,
                interval=config.advisor_interval,
                min_ops=config.advisor_min_ops,
                dry_run=config.advisor_dry_run,
                registry=registry,
                tracer=self.world.tracer,
            ).start()

    @property
    def healer(self) -> HealerLoop | None:
        return self._healer

    @property
    def chaos(self) -> ChaosController | None:
        return self._chaos

    @property
    def advisor(self) -> AdvisorLoop | None:
        return self._advisor

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``--port 0``."""
        if self._httpd is None:
            raise RuntimeError("daemon not started")
        return self._httpd.address

    @property
    def ops_served(self) -> int:
        """Operations completed so far."""
        return self._core.completed

    def request_stop(self) -> None:
        """Stop admitting operations (signal handlers land here)."""
        self._stop.set()

    def shutdown(self) -> dict:
        """Graceful drain; returns (and writes) the final report.

        Drain order: disarm chaos (no new faults land past this point)
        → stop admitting ops → quiesce the serving core (the admission
        loop stops, every already-queued operation completes, the loop
        and executor wind down, and the executor threads' contexts
        retire) → stop the healer with one final forced sweep (chaos
        is gone, so one attempt per quarantined ASR re-derives it from
        the object base) → flush the manager's batched maintenance
        queues → verify consistency (skipped, and recorded as a drain
        error, for any ASR still quarantined) → close the manager and
        retire every pool context → final accounting check → write the
        report → stop the HTTP endpoint.  Idempotent.
        """
        if self._report is not None:
            return self._report
        if self._chaos is not None:
            self._chaos.stop()
        if self._advisor is not None:
            # Before the serving core quiesces: a retune started now
            # would hold the write lock against the drain's own flush.
            # stop() joins the sweep thread, so any in-flight retune
            # completes (or rolls back) before the drain proceeds.
            self._advisor.stop()
        self._stop.set()
        self._loop_thread.join()
        self._core.close()
        if self._healer is not None:
            self._healer.stop(final_sweep=True)
        world = self.world
        flushed_rows = world.manager.flush()
        end_quarantined = [str(asr.path) for asr in world.manager.quarantined]
        if end_quarantined:
            self._errors.append(
                RecoveryError(
                    f"drained with quarantined ASR(s): {end_quarantined}"
                )
            )
        else:
            world.manager.check_consistency()
        world.manager.close()
        world.pool.close()
        accounting = world.pool.check_accounting(world.registry)
        uptime = time.perf_counter() - self._started_at
        ops_served = self.ops_served
        metrics = world.registry.snapshot()
        host, port = self.address
        config = self.config
        self._report = {
            "benchmark": "serve",
            "mode": "daemon",
            "config": {
                **asdict(config.serve),
                "host": host,
                "port": port,
                "advisor_interval": config.advisor_interval,
                "advisor_threshold": config.advisor_threshold,
                "advisor_dry_run": config.advisor_dry_run,
            },
            "device": config.serve.latency_model().describe(),
            "admission_rejected": int(
                world.registry.counter_value("admission.rejected")
            ),
            "uptime_seconds": round(uptime, 3),
            "ops_served": ops_served,
            "throughput_ops_per_s": round(ops_served / uptime, 2) if uptime else 0.0,
            "operations": operations_table(metrics),
            "drained": {
                "flushed_rows": flushed_rows,
                "errors": [repr(error) for error in self._errors],
            },
            "pool": world.pool.describe(),
            "query_cache": world.queries.cache.describe(),
            "tracing": world.tracer.describe(),
            "accounting": accounting,
            "advisor": self._advisor.describe() if self._advisor else None,
            "resilience": {
                "healer": self._healer.describe() if self._healer else None,
                "chaos": self._chaos.describe() if self._chaos else None,
                "breakers": world.breakers.describe(),
                "deadline_shed": int(
                    world.registry.counter_value("deadline.shed")
                ),
                "chaos_casualties": int(
                    world.registry.counter_value("chaos.casualties")
                ),
                "admission": {
                    "rejected": int(
                        world.registry.counter_value("admission.rejected")
                    ),
                    "max_shed_streak": self._max_shed_streak,
                },
                "end_state": {
                    "quarantined": end_quarantined,
                    "consistent": not end_quarantined,
                },
            },
            "metrics": metrics,
            "drift": world.drift.report(),
        }
        write_report(self._report, self.config.out)
        self._httpd.stop()
        return self._report

    def run(self, out=None) -> int:
        """Serve until SIGINT/SIGTERM, then drain.  The CLI entry point."""
        out = out or sys.stdout
        self.start()
        host, port = self.address
        print(
            f"serving on http://{host}:{port}  "
            f"(GET /metrics /healthz /stats /trace/recent, POST /query; "
            f"SIGTERM drains)",
            file=out,
            flush=True,
        )
        self._install_signal_handlers()
        try:
            while not self._stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            self._stop.set()
        report = self.shutdown()
        drained = report["drained"]
        print(
            f"drained after {report['uptime_seconds']:g}s: "
            f"{report['ops_served']} op(s) served "
            f"({report['throughput_ops_per_s']:g} ops/s), "
            f"{drained['flushed_rows']} maintenance row(s) flushed, "
            f"accounting "
            f"{'consistent' if report['accounting']['ok'] else 'INCONSISTENT'} "
            f"-> {self.config.out}",
            file=out,
            flush=True,
        )
        return 0 if report["accounting"]["ok"] and not drained["errors"] else 1

    def _install_signal_handlers(self) -> None:
        def handle(_signum, _frame) -> None:
            self.request_stop()

        try:
            signal.signal(signal.SIGINT, handle)
            signal.signal(signal.SIGTERM, handle)
        except ValueError:  # pragma: no cover - not on the main thread
            pass

    # ------------------------------------------------------------------
    # the replay loop
    # ------------------------------------------------------------------

    def _next_op(self) -> Operation | None:
        """The next operation of the cyclic replay, None once draining."""
        if self._stop.is_set():
            return None
        with self._index_lock:
            index = self._op_index
            self._op_index += 1
            stream = self._stream
        return stream[index % len(stream)]

    def _loop_main(self) -> None:
        """Thread target: run the serving core until the drain completes."""
        try:
            self._core.run(self._admission_loop)
        except BaseException as error:  # noqa: BLE001 - reported in the drain
            self._errors.append(error)
            self._stop.set()

    async def _admission_loop(self) -> None:
        """Admit replayed operations until stopped; shed when full.

        The core's admission queue is the overload boundary: a full
        queue sheds the arrival with a counted rejection instead of
        queueing unboundedly.  The post-shed backoff is
        :data:`SHED_BACKOFF_S` with ±50% seeded jitter, so a saturated
        pump neither spins (zero backoff) nor beats in lockstep with the
        drain rate (fixed backoff).
        """
        core = self._core
        registry = self.world.registry
        while not core.errors:
            op = self._next_op()
            if op is None:
                return
            entry = core.entry(op)
            try:
                core.queue.put_nowait(entry)
            except asyncio.QueueFull:
                self.world.tracer.finish(entry[2], "shed")
                registry.inc("admission.rejected")
                self._shed_streak += 1
                if self._shed_streak > self._max_shed_streak:
                    self._max_shed_streak = self._shed_streak
                await asyncio.sleep(
                    SHED_BACKOFF_S * (0.5 + self._shed_rng.random())
                )
            else:
                self._shed_streak = 0
                # Yield so workers run between admissions; the replay is
                # a closed loop, so without this the pump would fill the
                # queue before any operation starts.
                await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # endpoint payloads
    # ------------------------------------------------------------------

    def check_accounting(self) -> dict:
        """The accounting invariant now, also written to the ``accounting.*``
        gauges: checked under the manager's write lock, the quiescent
        point at which it is exact."""
        world = self.world
        with world.manager.exclusive():
            return world.pool.check_accounting(world.registry)

    def health(self) -> tuple[bool, dict]:
        """The ``/healthz`` verdict and payload.

        Computed under the manager's write lock — the quiescent point at
        which the accounting comparison and the ASR states are exact.

        Quarantine degrades the verdict in two tiers: an ASR the healer
        is *actively retrying* keeps the response 200 (with the detail
        in ``healing``) — transient faults under chaos must not flap a
        liveness probe that would restart a self-healing process — while
        an ASR the healer has given up on (or no healer at all) is
        hard-down and turns the response 503.
        """
        world = self.world
        with world.manager.exclusive():
            accounting = self.check_accounting()
            asrs = [
                {
                    "path": str(asr.path),
                    "extension": asr.extension.value,
                    "state": asr.state.value,
                }
                for asr in world.manager.asrs
            ]
        hit_rate = world.pool.pool.hit_rate
        hit_rate_ok = 0.0 <= hit_rate <= 1.0
        quarantined = [
            entry["path"]
            for entry in asrs
            if entry["state"] != ASRState.CONSISTENT.value
        ]
        healer_info = self._healer.describe() if self._healer is not None else None
        healing, hard_down = [], []
        for path in quarantined:
            actively_retried = (
                healer_info is not None
                and healer_info["running"]
                and path not in healer_info["gave_up"]
            )
            (healing if actively_retried else hard_down).append(path)
        ok = bool(accounting["ok"]) and hit_rate_ok and not hard_down
        payload = {
            "ok": ok,
            "status": "draining" if self._stop.is_set() else "serving",
            "uptime_seconds": round(time.perf_counter() - self._started_at, 3),
            "ops_served": self.ops_served,
            # Overload shedding is healthy behaviour, not a failure: the
            # admission counters are informational here.
            "inflight": self._core.inflight,
            "admission_rejected": int(
                world.registry.counter_value("admission.rejected")
            ),
            "accounting": accounting,
            "hit_rate": round(hit_rate, 4),
            "hit_rate_ok": hit_rate_ok,
            "quarantined": quarantined,
            "healing": healing,
            "quarantined_hard": hard_down,
            "healer": healer_info,
            "advisor": (
                self._advisor.describe() if self._advisor is not None else None
            ),
            "breakers": world.breakers.describe(),
            "chaos": self._chaos.describe() if self._chaos is not None else None,
            "deadline_shed": int(world.registry.counter_value("deadline.shed")),
            "asrs": asrs,
        }
        return ok, payload

    def execute_query(self, text: str, trace=None):
        """Run one ``POST /query`` text end to end; returns the outcome.

        Each HTTP request runs on one of the endpoint's worker threads
        (:mod:`repro.httpd`), so the query borrows a fresh context from
        the shared pool for its lifetime (accounting stays exact), and
        its charged pages are priced on the shared device model *after*
        all locks are released — the same discipline as replayed
        operations.

        ``trace`` (opened by the handler) is activated on this thread so
        the read-lock wait and the measured evaluations attribute to it;
        the service books ``cache-hit`` / ``plan`` / ``execute``, the
        device books ``device``, and the handler finishes with
        ``serialize``.
        """
        world = self.world
        with activate(trace):
            with world.pool.context() as context:
                outcome = world.select(text, context, trace)
            pages = outcome.report.total_pages
            if pages:
                self._core.device.charge(pages, trace=trace)
        return outcome

    def advisor_payload(self) -> dict:
        """The ``GET /advisor`` payload (``{"enabled": false}`` when off)."""
        if self._advisor is None:
            return {"enabled": False}
        return {"enabled": True, **self._advisor.describe()}

    def stats_payload(self) -> dict:
        """The ``/stats`` payload — the ``repro stats --json`` triple."""
        world = self.world
        accounting = self.check_accounting()
        return {
            "metrics": world.registry.snapshot(),
            "drift": world.drift.report(),
            "accounting": accounting,
        }


# ----------------------------------------------------------------------
# the HTTP routes: plain functions from a parsed request to a reply
# ----------------------------------------------------------------------

#: ``(status, content_type, body)`` — what :class:`~repro.httpd.Listener`
#: writes back.
Reply = tuple[int, str, bytes]

_JSON = "application/json"


def _json(status: int, payload: dict) -> Reply:
    return status, _JSON, json.dumps(payload, indent=2).encode("utf-8")


def _get_metrics(daemon: ServeDaemon, _request: Request) -> Reply:
    daemon.check_accounting()
    return (
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        daemon.world.registry.render_prometheus().encode("utf-8"),
    )


def _get_healthz(daemon: ServeDaemon, _request: Request) -> Reply:
    ok, payload = daemon.health()
    return _json(200 if ok else 503, payload)


def _get_stats(daemon: ServeDaemon, _request: Request) -> Reply:
    return _json(200, daemon.stats_payload())


def _get_advisor(daemon: ServeDaemon, _request: Request) -> Reply:
    return _json(200, daemon.advisor_payload())


def _get_recent_traces(daemon: ServeDaemon, request: Request) -> Reply:
    limit = 50
    for part in request.query.split("&"):
        key, _, value = part.partition("=")
        if key == "limit" and value.isdigit():
            limit = int(value)
    tracer = daemon.world.tracer
    return _json(
        200,
        {
            "tracing": tracer.describe(),
            "traces": [trace.summary() for trace in tracer.store.recent(limit)],
        },
    )


def _get_trace(daemon: ServeDaemon, request: Request) -> Reply:
    trace = daemon.world.tracer.store.get(request.path[len("/trace/") :])
    if trace is None:
        return _json(404, {"error": "trace not found (evicted or never retained)"})
    return _json(200, trace.as_dict())


def _bad_request(daemon: ServeDaemon, message: str) -> Reply:
    daemon.world.registry.inc("query.errors", kind="bad-request")
    return _json(400, {"error": {"kind": "bad-request", "message": message}})


def _post_query(daemon: ServeDaemon, request: Request) -> Reply:
    raw = request.body
    try:
        body = json.loads(raw.decode("utf-8")) if raw else None
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return _bad_request(daemon, f"body is not valid JSON: {error}")
    if not isinstance(body, dict):
        return _bad_request(daemon, 'body must be a JSON object {"query": "…"}')
    text = body.get("query")
    if not isinstance(text, str) or not text.strip():
        return _bad_request(daemon, '"query" must be a non-empty string')
    tracer = daemon.world.tracer
    trace = tracer.begin("POST /query", "query")
    try:
        outcome = daemon.execute_query(text, trace=trace)
        # Rendering rows to JSON-clean cells is serialization
        # work too, so the payload build sits inside the span.
        with maybe_span(trace, "server.serialize", "serialize"):
            payload = outcome.payload()
            if trace is not None:
                payload["trace_id"] = trace.trace_id
            # No ``indent``: the one hot body takes json's C encoder.
            reply = 200, _JSON, json.dumps(payload).encode("utf-8")
    except QueryError as error:
        tracer.finish(trace, "error")
        kind = "parse" if isinstance(error, ParseError) else "validate"
        return _json(400, {"error": {"kind": kind, "message": str(error)}})
    except Exception:
        # The wire's 500 is exactly what tail capture is for.
        tracer.finish(trace, "error")
        raise
    tracer.finish(trace)
    return reply


class _Route(NamedTuple):
    method: str
    #: The bounded-cardinality ``endpoint`` label; a trailing ``:id``
    #: stands for any suffix.
    label: str
    handler: Callable[[ServeDaemon, Request], Reply]

    @property
    def documented(self) -> str:
        """``METHOD /path`` as docs/observability.md's endpoint table spells it."""
        return f"{self.method} {self.label.replace(':id', '<id>')}"


#: The daemon's routes, written once, in match order.
_ROUTES = (
    _Route("GET", "/metrics", _get_metrics),
    _Route("GET", "/healthz", _get_healthz),
    _Route("GET", "/stats", _get_stats),
    _Route("GET", "/advisor", _get_advisor),
    _Route("GET", "/trace/recent", _get_recent_traces),
    _Route("GET", "/trace/:id", _get_trace),
    _Route("POST", "/query", _post_query),
)

#: What the 404 payload advertises.
_ENDPOINTS = [route.documented.removeprefix("GET ") for route in _ROUTES]


def _route(path: str) -> _Route | None:
    """The route whose label matches ``path`` (no query string), if any."""
    for route in _ROUTES:
        prefix, parameter, _ = route.label.partition(":")
        matches = path.startswith(prefix) if parameter else path == route.label
        if matches:
            return route
    return None


def _serve(daemon: ServeDaemon, request: Request) -> Reply:
    """Route one request; self-report count and latency.

    Route and ``endpoint`` label come from the same query-stripped path,
    whatever the method.  Every endpoint — scrapes included — lands in
    ``http.latency_ms{endpoint}`` (its count is the request count), so
    the observability plane observes itself; a handler's exception
    passes through (counted) to the wire's 500.
    """
    registry = daemon.world.registry
    route = _route(request.path)
    endpoint = "other" if route is None else route.label
    started = time.perf_counter()
    try:
        if route is None or route.method != request.method:
            return _json(
                404,
                {"error": f"unknown path {request.target!r}", "endpoints": _ENDPOINTS},
            )
        return route.handler(daemon, request)
    finally:
        registry.observe(
            "http.latency_ms",
            (time.perf_counter() - started) * 1e3,
            endpoint=endpoint,
        )
