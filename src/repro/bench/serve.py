"""Query serving over one shared bounded buffer pool: the serving core.

The paper's evaluation is single-client: one operation at a time, page
accesses as the cost measure.  This module measures the *serving*
dimension instead: a seeded operation stream (:mod:`repro.workload.opstream`)
replayed against one chain database through a
:class:`~repro.concurrency.ContextPool`, all workers sharing one bounded
pool (LIRS: pages re-touched at short distance hold its LIR frames, and
evictions come only from a small FIFO of the rest) and the ASR
manager's readers-writer lock — queries proceed
concurrently, updates (graph mutation plus eager ASR maintenance) run
under :meth:`~repro.asr.manager.ASRManager.exclusive`.

Page accesses are still the cost *model*; wall-clock needs an I/O model
on top.  Every operation's charged pages are priced by a
:class:`~repro.device.DeviceModel` **after** the operation releases its
locks.  One mechanism does that, :class:`ServingCore`: an asyncio event
loop drains a bounded admission queue (capacity ``max_inflight``) with
``max_inflight`` worker tasks; each offloads its CPU-bound plan
evaluation to a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
of ``clients`` threads (:func:`execute_operation`, locks and pool
accounting on real threads) and then *awaits*
:meth:`~repro.device.DeviceModel.acharge` on the loop — so the simulated
device waits cost no thread at all, and in-flight operations are bounded
by ``max_inflight`` instead of ``clients``.

The long-lived daemon (:mod:`repro.server`) and the benchmark ladder
(``benchmarks/ladder/``) drive the same pieces: :func:`build_world`
assembles the generated database, ASR manager, context pool, and drift
monitor into one :class:`ServeWorld`; :func:`execute_operation`
executes one bound operation's lock-disciplined core;
:func:`drive_operation_async` adds the device charge and latency
accounting; :class:`ServingCore` owns the queue, the worker tasks and
the drain.  Only the *arrivals* differ: the daemon replays the stream
cyclically and sheds at a full queue, a finite replay awaits
``queue.put`` over its stream so that every operation runs.  The
daemon's drain report (``BENCH_serve_daemon.json``, written by
:func:`write_report`) carries per-operation p50/p95/p99 latencies
(:func:`operations_table`, read from the ``op.latency_ms`` histograms),
the shared pool's hit rate, and the accounting invariant (pool misses
== the reads + writes recorded by retired + live contexts).
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.asr.adaptive import WorkloadRecorder
from repro.asr.extensions import Extension
from repro.asr.manager import ASRManager
from repro.concurrency import ContextPool
from repro.costmodel.measured import MeasuredCosts
from repro.costmodel.parameters import ApplicationProfile
from repro.device import DeviceModel, LatencyModel, parse_io_dist
from repro.errors import InjectedFault, SimulatedCrash
from repro.gom.paths import PathExpression
from repro.query.evaluator import QueryEvaluator
from repro.query.planner import Planner
from repro.query.service import QueryService
from repro.resilience import BreakerBoard
from repro.telemetry import DriftMonitor, MetricsRegistry, Tracer, estimate_quantile
from repro.telemetry.tracing import activate, maybe_span, record_pages
from repro.workload.generator import ChainGenerator, GeneratedDatabase
from repro.workload.opstream import (
    Operation,
    apply_update,
    operation_stream,
    select_stream,
)
from repro.workload.profiles import FIG14_MIX

__all__ = [
    "ServeConfig",
    "ServeWorld",
    "ExecutorWorkers",
    "ServingCore",
    "build_world",
    "execute_operation",
    "drive_operation_async",
    "operations_table",
    "SMALL_PROFILE",
    "SERVE_PROFILES",
    "write_report",
]

#: A small n=4 chain (the Figure 14 shape, scaled down ~250×) that
#: builds in well under a second yet yields non-trivial ASR trees.
SMALL_PROFILE = ApplicationProfile(
    c=(40, 80, 120, 240, 480),
    d=(36, 64, 96, 200),
    fan=(2, 2, 2, 2),
    size=(120,) * 5,
)

#: ``--profile`` choices: name -> (generator profile, operation mix).
#: ``queries`` serves *textual* selects through the query service (the
#: ``POST /query`` pipeline: parse → validate → plan cache → execute)
#: over the Fig. 14 shape, mixed with FIG14 updates.
SERVE_PROFILES = {
    "fig14": (SMALL_PROFILE, FIG14_MIX),
    "queries": (SMALL_PROFILE, FIG14_MIX),
}


@dataclass
class ServeConfig:
    """Knobs of one serve run (all reachable from ``repro serve``)."""

    #: CPU executor threads; 0 replays nothing (the daemon then serves
    #: only ``POST /query``).
    clients: int = 4
    ops: int = 200
    seed: int = 0
    capacity: int = 256
    #: Simulated device latency per charged page, in microseconds
    #: (the median, for jittered distributions).
    io_micros: float = 150.0
    #: Latency distribution spec (see :func:`repro.device.parse_io_dist`):
    #: ``fixed``, ``lognormal[:SIGMA]``, or a device class preset.
    io_dist: str = "fixed"
    query_fraction: float = 0.8
    #: Which application shape to serve (a :data:`SERVE_PROFILES` key).
    profile: str = "fig14"
    #: Concurrent in-flight operation bound: the admission queue's
    #: capacity and the number of worker tasks draining it.
    max_inflight: int = 1024
    #: Queue entries older than this many milliseconds at dequeue time
    #: are shed unexecuted (``deadline.shed``, counted separately from
    #: admission rejects).  ``None`` disables deadlines.
    op_deadline_ms: float | None = None
    #: Head-sampling probability for request traces (seeded RNG); 0.0
    #: with no ``slow_trace_ms`` disables tracing entirely — the serve
    #: hot paths then pay nothing for it.
    trace_sample_rate: float = 0.0
    #: Tail-capture threshold: traces at least this slow (end to end,
    #: ms) are always retained, as are shed/degraded/breaker-open/error
    #: outcomes while tracing is enabled.  ``None`` leaves only head
    #: sampling (when its rate is non-zero).
    slow_trace_ms: float | None = None

    def resolved_profile(self) -> tuple[ApplicationProfile, object]:
        """The (generator profile, operation mix) pair of :attr:`profile`."""
        try:
            return SERVE_PROFILES[self.profile]
        except KeyError:
            raise ValueError(
                f"unknown serve profile {self.profile!r}; "
                f"known: {sorted(SERVE_PROFILES)}"
            ) from None

    def latency_model(self) -> LatencyModel:
        """The latency distribution :attr:`io_dist` describes."""
        return parse_io_dist(self.io_dist, self.io_micros, self.seed)

    def device(self, registry: MetricsRegistry | None = None) -> DeviceModel:
        """A fresh :class:`~repro.device.DeviceModel` for one run."""
        return DeviceModel(self.latency_model(), registry)


@dataclass
class ServeWorld:
    """Everything one serve run drives, bench replay or daemon loop."""

    config: ServeConfig
    registry: MetricsRegistry
    generated: GeneratedDatabase
    manager: ASRManager
    pool: ContextPool
    drift: DriftMonitor
    breakers: BreakerBoard
    #: The replay stream's planner (shared by every executor thread):
    #: ranked by ``manager.costs``, breaker-gated, feeding :attr:`drift`.
    planner: Planner
    #: The text-in/rows-out front door (``POST /query`` and the
    #: ``queries`` profile's select operations); its planner ranks by
    #: the same price list.
    queries: QueryService
    #: Per-request tracing front door (DESIGN §14); disabled by default.
    tracer: Tracer
    #: The live op mix over the chain path, fed by every executed
    #: operation and by ``POST /query`` — what the
    #: :class:`~repro.asr.adaptive.AdvisorLoop` re-costs designs
    #: against.  Thread-safe; recording is a couple of dict bumps.
    recorder: WorkloadRecorder

    def select(self, text: str, context, trace=None):
        """Run one select text through :attr:`queries`; record it.

        The one place a textual select feeds :attr:`recorder`, replayed
        or ``POST /query``: it resolves anchors from terminal values —
        the chain-path shape of a full backward traversal.
        """
        outcome = self.queries.execute(text, context=context, trace=trace)
        self.recorder.record_query(0, self.recorder.path.n, "bw")
        return outcome

    def stream(self) -> list[Operation]:
        """The seeded operation stream this world's config describes."""
        _profile, mix = self.config.resolved_profile()
        if self.config.profile == "queries":
            return select_stream(
                self.generated,
                mix,
                count=self.config.ops,
                seed=self.config.seed,
                query_fraction=self.config.query_fraction,
            )
        return operation_stream(
            self.generated,
            mix,
            count=self.config.ops,
            seed=self.config.seed,
            query_fraction=self.config.query_fraction,
        )


def build_world(
    config: ServeConfig, registry: MetricsRegistry | None = None
) -> ServeWorld:
    """Generate the chain database, build its ASR, wire pool and drift."""
    registry = registry if registry is not None else MetricsRegistry()
    profile, _mix = config.resolved_profile()
    generated = ChainGenerator(config.seed).generate(profile)
    pool = ContextPool(config.capacity, metrics=registry)
    # The world's one price list, owned by its manager: every planner
    # over it, the drift monitor and (in the daemon) the advisor price
    # through it, over the *measured* profile of the world we actually
    # built — so the drift report isolates model error from input
    # error, about the prices plans were ranked by.  The chain path is
    # measured here, not when the first query arrives; other paths on
    # first use.
    costs = MeasuredCosts(
        generated.db, dict(zip(generated.path.types, generated.profile.size))
    )
    costs.profile_for(generated.path)
    manager_context = pool.acquire()
    manager = ASRManager(generated.db, context=manager_context, costs=costs)
    manager.create(generated.path, Extension.FULL)
    if config.profile == "queries":
        # The queries profile selects on the chain's Payload terminals;
        # give those selects an ASR over the value-extended path so the
        # service's planner has something to choose.  (Other profiles
        # keep the single chain ASR.)
        payload_path = PathExpression(
            generated.db.schema,
            "T0",
            tuple("A" for _ in range(generated.n)) + ("Payload",),
        )
        manager.create(payload_path, Extension.FULL)
    drift = DriftMonitor(costs, registry)
    # Per-ASR circuit breakers, fed by the manager's quarantine
    # transitions; the planners below filter candidates through them.
    # Three consecutive faults open one; it probes half-open after 2 s.
    breakers = BreakerBoard(threshold=3, cooldown_s=2.0, registry=registry)
    manager.add_state_listener(breakers.on_asr_state)
    # The two planners a world needs, both breaker-gated and both ranked
    # by the manager's price list, so they choose alike.  Replay feeds
    # the drift monitor; the textual front door sits behind an
    # epoch-keyed compiled-plan cache.  Drift stays focused on the
    # replay stream's Q_{i,j} shapes (a value-range select is priced as
    # the point backward query over its range), so no drift hook there.
    planner = Planner(manager, drift=drift, breakers=breakers)
    queries = QueryService(
        generated.db,
        Planner(manager, breakers=breakers),
        store=generated.store,
        registry=registry,
    )
    tracer = Tracer(
        registry,
        sample_rate=config.trace_sample_rate,
        slow_trace_ms=config.slow_trace_ms,
        seed=config.seed,
    )
    recorder = WorkloadRecorder(generated.path)
    return ServeWorld(
        config,
        registry,
        generated,
        manager,
        pool,
        drift,
        breakers,
        planner,
        queries,
        tracer,
        recorder,
    )


def execute_operation(
    world: ServeWorld,
    context,
    planner: Planner,
    evaluator: QueryEvaluator,
    op: Operation,
    trace=None,
) -> int:
    """Execute one bound operation's lock-disciplined core; return pages.

    Queries run through the planner (read side of the manager's lock);
    updates — the graph mutation plus its eager maintenance — are one
    atomic unit under :meth:`~repro.asr.manager.ASRManager.exclusive`,
    with pages read off the manager context's private stats (updates are
    serialized by the write lock, so the delta is unambiguous).  This is
    the CPU-bound half of an operation: no simulated device latency is
    charged here, so it is safe to run on an executor thread while the
    event loop prices the returned pages asynchronously.

    ``trace`` threads the request trace into the planner / query
    service (``plan`` / ``cache-hit`` / ``execute`` phases) and books an
    update's mutation + maintenance under ``execute``, as one
    ``asr.maintain`` row carrying the pages returned; the write-lock
    wait and the evaluator's measured rows are attributed through the
    *thread-local* active trace — callers activate it.
    """
    manager, drift = world.manager, world.drift
    if op.kind == "query":
        result = planner.execute(op.query, evaluator, trace=trace)
        world.recorder.record_query(op.query.i, op.query.j, op.query.kind)
        return result.total_pages
    if op.kind == "select":
        return world.select(op.text, context, trace).report.total_pages
    with manager.exclusive():
        with maybe_span(trace, "asr.maintain", "execute") as row:
            before = manager.context.stats.snapshot()
            apply_update(world.generated, op)
            delta = manager.context.stats.delta_since(before)
            record_pages(row, delta)
            pages = delta.total
    drift.observe_update(op.level, manager.asrs, pages)
    world.recorder.record_update(op.level)
    return pages


async def drive_operation_async(
    world: ServeWorld,
    workers: "ExecutorWorkers",
    op: Operation,
    device: DeviceModel,
    trace=None,
) -> None:
    """Drive one operation: executor offload, then an awaited charge.

    The CPU-bound core runs on ``workers``' bounded executor (where the
    RWLock/ContextPool accounting stays on real threads); the simulated
    device latency is awaited on the event loop, outside all locks, so
    an operation in its I/O phase holds no thread.  The end-to-end
    latency of an operation that completes lands in the registry's
    ``op.latency_ms{op, kind}`` histogram, its one record.

    ``trace`` is begun at admission by :meth:`ServingCore.entry` (so the
    queue wait is inside the trace); a caller without a queue may pass
    ``None`` and the world's tracer opens one here.  The trace travels
    into the executor as an explicit argument — ``run_in_executor`` does
    not propagate ``contextvars`` — and ``workers.execute`` pins it to
    the worker thread for the deep (lock, ASR) hooks.
    """
    loop = asyncio.get_running_loop()
    start = time.perf_counter()
    if trace is None:
        trace = world.tracer.begin(op.name, op.kind)
    try:
        pages = await loop.run_in_executor(
            workers.executor, workers.execute, op, trace
        )
        if pages:
            await device.acharge(pages, trace=trace)  # simulated I/O, on the loop
    except BaseException:
        world.tracer.finish(trace, "error")
        raise
    world.registry.observe(
        "op.latency_ms",
        (time.perf_counter() - start) * 1e3,
        exemplar=None if trace is None else trace.trace_id,
        op=op.name,
        kind=op.kind,
    )
    world.tracer.finish(trace)


class ExecutorWorkers:
    """A bounded executor running each operation on its own pooled context.

    The serving core offloads :func:`execute_operation` calls here.
    Every operation borrows an :class:`~repro.context.ExecutionContext`
    from the world's pool for its lifetime (``with pool.context()``, as
    ``POST /query`` does per request), so the pool's accounting
    invariant (shared == retired + Σ live) holds and a failed operation
    still retires its context.  :meth:`close` shuts the executor down.
    """

    def __init__(self, world: ServeWorld, max_workers: int) -> None:
        self.world = world
        self.max_workers = max(1, max_workers)
        self.executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="serve-exec"
        )

    def execute(self, op: Operation, trace=None) -> int:
        """Run one operation's core on the calling executor thread.

        ``trace`` arrives as an explicit argument from the event loop
        (``run_in_executor`` copies no context) and is pinned to this
        thread for the duration, so the RWLock wait hooks and the
        context's measured operations can find it.
        """
        world = self.world
        with activate(trace), world.pool.context() as context:
            evaluator = QueryEvaluator(
                world.generated.db, world.generated.store, context=context
            )
            return execute_operation(
                world, context, world.planner, evaluator, op, trace=trace
            )

    def close(self) -> None:
        """Drain the executor (every operation retired its own context)."""
        self.executor.shutdown(wait=True)


class ServingCore:
    """The one serving core: a bounded admission queue drained by worker tasks.

    The ``repro serve`` daemon instantiates this class (the ladder's
    ``select-http`` workload through the daemon).  It owns the queue (capacity ``max_inflight``), the
    ``max_inflight`` worker tasks, the bounded executor (``clients``
    threads), the device model, the ``inflight`` / ``queue.depth``
    gauges, and the drain.  Each worker task is one in-flight operation
    slot: dequeue, shed if the entry's deadline already passed, offload
    the CPU-bound core to the executor, await the device charge on the
    loop, count the completion in :attr:`completed`.

    *Arrivals stay with the caller*: :meth:`serve` runs a caller-supplied
    coroutine that puts :meth:`entry` tuples on :attr:`queue` — a
    finite replay awaits ``queue.put`` over its stream (waiting at
    the bound, so every operation runs), the daemon replays cyclically
    with ``put_nowait`` and sheds on :class:`asyncio.QueueFull`, until
    stopped or :attr:`errors` is non-empty.

    ``chaos`` (the daemon's optional
    :class:`~repro.resilience.ChaosController`) is struck once per
    dequeued operation; an operation its fault kills is a counted
    casualty (``chaos.casualties``), not an error — the ASR is
    quarantined and the healer picks it up.
    """

    def __init__(self, world: ServeWorld, chaos=None) -> None:
        config = world.config
        self.world = world
        self.chaos = chaos
        self.workers = ExecutorWorkers(world, config.clients)
        self.device = config.device(world.registry)
        self.limit = max(1, config.max_inflight)
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=self.limit)
        #: Operations currently executing (mutated only on the loop
        #: thread; read by gauge scrapes — a plain int is safe).
        self.inflight = 0
        self.peak_inflight = 0
        #: Operations completed: exactly those observed in
        #: ``op.latency_ms`` (no casualty, no deadline shed).
        self.completed = 0
        #: Failures of individual operations; :meth:`serve` raises the
        #: first once the drain completes.
        self.errors: list[Exception] = []
        world.registry.gauge_fn("inflight", lambda: self.inflight)
        world.registry.gauge_fn("queue.depth", self.queue.qsize)

    def entry(self, op: Operation) -> tuple:
        """The queue entry admitting ``op`` now.

        The trace opens at admission, so queue wait is inside it and an
        operation shed at the front door still leaves a tail-captured
        "shed" trace behind (the caller finishes ``entry[2]``).
        """
        admitted = time.perf_counter()
        return op, admitted, self.world.tracer.begin(op.name, op.kind, started=admitted)

    def run(self, arrivals) -> None:
        """Serve on a fresh event loop until ``arrivals`` and the drain end.

        ``clients == 0`` starts no loop and replays nothing — in the
        finite replay and in the daemon alike.
        """
        if self.world.config.clients > 0:
            asyncio.run(self.serve(arrivals))

    async def serve(self, arrivals) -> None:
        """Worker tasks drain the queue while ``arrivals()`` feeds it.

        When ``arrivals`` returns, every *already admitted* operation
        completes (``queue.join``), and only then are the idle workers
        cancelled — so a drain under a saturated queue loses no
        admitted work.
        """
        tasks = [asyncio.create_task(self._worker()) for _ in range(self.limit)]
        try:
            await arrivals()
            await self.queue.join()
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        if self.errors:
            raise self.errors[0]

    async def _worker(self) -> None:
        """One in-flight operation slot: dequeue, execute, charge, count.

        With ``op_deadline_ms`` set, an entry whose queue wait already
        exceeds the deadline is shed *unexecuted* (``deadline.shed``) —
        its caller has given up, so burning a worker slot on it only
        delays entries that can still make their deadline.  Deadline
        sheds are deliberately a separate counter from admission
        rejects: rejects measure pushback at the front door, deadline
        sheds measure staleness past it.
        """
        world = self.world
        deadline_ms = world.config.op_deadline_ms
        while True:
            op, admitted, trace = await self.queue.get()
            try:
                wait_ms = (time.perf_counter() - admitted) * 1e3
                if deadline_ms is not None and wait_ms > deadline_ms:
                    world.registry.inc("deadline.shed")
                    world.tracer.finish(trace, "shed")
                    continue
                world.registry.observe("queue.wait_ms", wait_ms)
                if trace is not None:
                    trace.add_phase("serve.queue", "queue", wait_ms)
                if self.chaos is not None:
                    self.chaos.on_operation(op)
                self.inflight += 1
                self.peak_inflight = max(self.peak_inflight, self.inflight)
                try:
                    await drive_operation_async(
                        world, self.workers, op, self.device, trace=trace
                    )
                except (InjectedFault, SimulatedCrash):
                    if self.chaos is None:
                        raise
                    world.registry.inc("chaos.casualties")
                    continue
                finally:
                    self.inflight -= 1
                self.completed += 1
            except Exception as error:  # noqa: BLE001 - raised after the drain
                self.errors.append(error)
            finally:
                self.queue.task_done()

    def close(self) -> None:
        """Shut the executor down."""
        self.workers.close()


def operations_table(metrics: dict) -> dict:
    """Per-operation latency table of a registry snapshot, in ms.

    One row per ``op.latency_ms`` histogram (an operation's name fixes
    its kind): its count and mean, and p50/p95/p99 estimated from its
    log-scale buckets (:func:`~repro.telemetry.registry.estimate_quantile`).
    """
    return {
        entry["labels"]["op"]: {
            "count": entry["count"],
            "p50_ms": round(estimate_quantile(entry, 0.50), 3),
            "p95_ms": round(estimate_quantile(entry, 0.95), 3),
            "p99_ms": round(estimate_quantile(entry, 0.99), 3),
            "mean_ms": round(entry["mean"], 3),
        }
        for entry in sorted(
            metrics["histograms"].get("op.latency_ms", ()),
            key=lambda entry: entry["labels"]["op"],
        )
    }


def write_report(report: dict, path: str) -> None:
    """Write a bench report as indented JSON (the ``BENCH_*.json`` artifacts)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
