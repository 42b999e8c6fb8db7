"""End-to-end request tracing with per-phase latency decomposition.

The serve stack's aggregate histograms (``op.latency_ms``,
``query.latency_ms``) say *that* a request was slow, never *why*: the
time could have gone to the admission queue, a starved ``RWLock``,
planning, ASR traversal, or the simulated device, and the paper's §6
cost-model argument is precisely about attributing access cost to the
individual access path taken.  This module gives every request a causal
trace:

* :class:`Trace` — one request's span tree plus a **phase rollup**: the
  wall time attributed to ``queue``, ``lock.read`` / ``lock.write``
  wait, ``plan`` vs ``cache-hit``, ``execute``, ``device``, and
  ``serialize``.  Phases are recorded over *disjoint* segments of the
  request, so their sum approaches the end-to-end latency from below;
  the remainder is reported as ``unattributed_ms``.  The rows of the
  span tree are the product's **one span record**: every row is named
  ``<layer>.<what>`` (:data:`LAYERS`), carries ``start_ms`` /
  ``duration_ms``, and — when it brackets charged work — the interval's
  ``page_reads`` / ``page_writes`` (:func:`record_pages`; written by
  :meth:`ExecutionContext.measure <repro.context.ExecutionContext.measure>`,
  the one place a page delta is taken).
* :class:`Tracer` — issues trace IDs at the front door, decides
  retention.  **Head sampling** keeps a seeded-RNG fraction of traces
  (``--trace-sample-rate``; deterministic per the chaos-layer idiom —
  no unseeded randomness).  **Tail capture** always retains traces that
  exceeded ``--slow-trace-ms`` or ended in a ``shed`` / ``degraded`` /
  ``breaker-open`` / ``error`` outcome, however the head coin landed.
* :class:`TraceStore` — a lock-protected ring buffer of retained
  traces, served by the daemon's ``GET /trace/recent`` and
  ``GET /trace/<id>`` endpoints.

**Cost when off.**  With ``sample_rate == 0`` and no ``slow_trace_ms``
the tracer is disabled: :meth:`Tracer.begin` returns ``None``, every
hot-path hook is guarded by an ``is None`` check (or, for the deep
hooks that cannot take a parameter, a thread-local read on an already
slow path), and no clock is read on behalf of tracing.

**Propagation.**  Traces travel *explicitly* — through the admission
queue tuple, the drive functions, and ``ExecutorWorkers.execute`` —
because ``loop.run_in_executor`` does not copy ``contextvars`` context.
For hooks too deep to thread a parameter into (the ``RWLock`` wait
paths, the execution context's measured operations), :func:`activate`
pins the trace to the executing thread and :func:`current_trace` reads
it back; a single request never runs on two threads at once, so
per-trace state needs no lock of its own.
"""

from __future__ import annotations

import itertools
import json
import logging
import random
import threading
import time
from collections import deque
from contextlib import nullcontext

__all__ = [
    "LAYERS",
    "PHASES",
    "TAIL_OUTCOMES",
    "Trace",
    "TraceStore",
    "Tracer",
    "activate",
    "current_trace",
    "maybe_span",
    "record_pages",
]

#: The layer prefixes of row names (``<layer>.<what>``) — the product
#: layers of the benchmark ladder's per-layer sheet, so a trace and the
#: ladder speak one vocabulary.
LAYERS = (
    "storage",
    "asr",
    "gom",
    "query",
    "concurrency",
    "device",
    "serve",
    "server",
)

#: Every phase a trace may attribute time to, in pipeline order.
PHASES = (
    "queue",
    "lock.read",
    "lock.write",
    "cache-hit",
    "plan",
    "execute",
    "device",
    "serialize",
)

#: Outcomes tail capture always retains (besides slow traces).
TAIL_OUTCOMES = frozenset({"shed", "degraded", "breaker-open", "error"})

#: Structured slow-query log lines go here (one JSON object per line).
slow_query_logger = logging.getLogger("repro.slowquery")

class _Active(threading.local):
    #: The class default every thread sees until it activates a trace,
    #: so reading it never raises (and catches) an ``AttributeError``.
    trace: "Trace | None" = None


_ACTIVE = _Active()


def current_trace() -> "Trace | None":
    """The trace pinned to the calling thread, if any."""
    return _ACTIVE.trace


class activate:
    """Pin ``trace`` to the calling thread for the duration of the block.

    ``None`` is accepted and costs one attribute write each way, so call
    sites need no guard of their own.
    """

    __slots__ = ("trace", "previous")

    def __init__(self, trace: "Trace | None") -> None:
        self.trace = trace

    def __enter__(self) -> None:
        self.previous = _ACTIVE.trace
        _ACTIVE.trace = self.trace

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.trace = self.previous


class Trace:
    """One request's span tree, phase rollup, and outcome.

    All mutation happens from whichever single thread is currently
    executing the request (the serving pipeline hands a request between
    threads but never runs it on two at once), so no lock is taken.
    """

    __slots__ = (
        "trace_id",
        "name",
        "kind",
        "sampled",
        "outcome",
        "started_unix",
        "started",
        "duration_ms",
        "spans",
        "phases",
        "annotations",
        "_stack",
    )

    def __init__(
        self,
        trace_id: str,
        name: str,
        kind: str,
        sampled: bool,
        started: float | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.name = name
        self.kind = kind
        self.sampled = sampled
        self.outcome = "ok"
        self.started_unix = time.time()
        #: perf_counter origin; backdated when the request was admitted
        #: before the trace object existed (queue wait).
        self.started = time.perf_counter() if started is None else started
        self.duration_ms: float | None = None
        #: ``{name, phase, start_ms, duration_ms, parent}`` rows, plus
        #: ``page_reads`` / ``page_writes`` (and ``by_category`` when
        #: non-empty) on rows whose interval was measured.
        self.spans: list[dict] = []
        self.phases: dict[str, float] = {}
        self.annotations: dict = {}
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def add_phase(self, name: str, phase: str, duration_ms: float) -> None:
        """Attribute ``duration_ms`` to ``phase`` as a leaf span called ``name``.

        The span is backdated so its end coincides with *now*; used by
        hooks that only learn the duration after the fact (lock waits,
        queue waits).
        """
        now_ms = (time.perf_counter() - self.started) * 1e3
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {
                "name": name,
                "phase": phase,
                "start_ms": round(max(0.0, now_ms - duration_ms), 4),
                "duration_ms": round(duration_ms, 4),
                "parent": parent,
            }
        )
        self.phases[phase] = self.phases.get(phase, 0.0) + duration_ms

    def span(self, name: str, phase: str | None = None) -> "_Span":
        """Record a timed span; attribute it to ``phase`` when given.

        Spans nest: a span opened inside another becomes its child in
        the exported tree.  Only spans with a ``phase`` contribute to
        the rollup, so a measured row nested inside a phase row
        (``query.supported.bw`` inside ``query.evaluate``) never
        double-counts.  ``with trace.span(...) as row`` yields the row,
        so the caller that measured the interval's pages can put them
        on it (:func:`record_pages`).
        """
        return _Span(self, name, phase)

    def annotate(self, **fields) -> None:
        """Attach request metadata (query text, strategy, pages, …)."""
        self.annotations.update(fields)

    def mark(self, outcome: str) -> None:
        """Record a non-``ok`` outcome; ``ok`` never overwrites one."""
        if outcome != "ok":
            self.outcome = outcome

    def finish(self, outcome: str | None = None) -> float:
        """Close the trace; returns the end-to-end duration in ms."""
        if outcome is not None:
            self.mark(outcome)
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self.started) * 1e3
        return self.duration_ms

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    @property
    def phase_total_ms(self) -> float:
        """Σ of the phase rollup — the attributed share of the latency."""
        return sum(self.phases.values())

    def summary(self) -> dict:
        """The ``GET /trace/recent`` row: rollup without the span tree."""
        duration = self.duration_ms if self.duration_ms is not None else 0.0
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "kind": self.kind,
            "outcome": self.outcome,
            "sampled": self.sampled,
            "started_unix": self.started_unix,
            "duration_ms": round(duration, 4),
            "phases": {k: round(v, 4) for k, v in self.phases.items()},
            "unattributed_ms": round(max(0.0, duration - self.phase_total_ms), 4),
        }

    def as_dict(self) -> dict:
        """The full ``GET /trace/<id>`` payload, span tree included."""
        payload = self.summary()
        payload["spans"] = [dict(span) for span in self.spans]
        payload["annotations"] = dict(self.annotations)
        return payload


class _Span:
    """The context manager :meth:`Trace.span` returns.

    A plain class, not a generator: a span's own bookkeeping is glue no
    row can cover, so the clock is read first thing on entry and on
    exit, and nothing but the row's upkeep runs outside the interval.
    """

    __slots__ = ("trace", "name", "phase", "row", "start")

    def __init__(self, trace: Trace, name: str, phase: str | None) -> None:
        self.trace = trace
        self.name = name
        self.phase = phase

    def __enter__(self) -> dict:
        start = self.start = time.perf_counter()
        trace = self.trace
        stack = trace._stack
        row = self.row = {
            "name": self.name,
            "phase": self.phase,
            "start_ms": round((start - trace.started) * 1e3, 4),
            "duration_ms": None,
            "parent": stack[-1] if stack else None,
        }
        stack.append(len(trace.spans))
        trace.spans.append(row)
        return row

    def __exit__(self, *exc_info) -> None:
        duration_ms = (time.perf_counter() - self.start) * 1e3
        trace = self.trace
        trace._stack.pop()
        self.row["duration_ms"] = round(duration_ms, 4)
        phase = self.phase
        if phase is not None:
            trace.phases[phase] = trace.phases.get(phase, 0.0) + duration_ms


#: What :func:`maybe_span` returns with tracing off: enters to ``None``.
_NO_SPAN = nullcontext()


def maybe_span(
    trace: "Trace | None", name: str, phase: str | None = None
) -> "_Span | nullcontext":
    """``trace.span(...)`` that degrades to a no-op when tracing is off."""
    if trace is None:
        return _NO_SPAN
    return _Span(trace, name, phase)


def record_pages(row: dict | None, delta, **notes) -> None:
    """Make ``row`` a *measured* row: the interval's page delta, plus ``notes``.

    ``delta`` is the :class:`~repro.storage.stats.AccessStats` delta
    taken over exactly the interval the row times.  A ``None`` row
    (tracing off) costs one comparison.
    """
    if row is None:
        return
    row["page_reads"] = delta.page_reads
    row["page_writes"] = delta.page_writes
    if delta.by_category:
        row["by_category"] = dict(delta.by_category)
    row.update(notes)


class TraceStore:
    """A lock-protected ring buffer of retained traces.

    The newest ``capacity`` retained traces win; eviction also drops the
    ``trace_id`` index entry, so lookups never resurrect an evicted
    trace.  All methods are safe from any thread.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("trace store capacity must be at least one")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[Trace] = deque()
        self._by_id: dict[str, Trace] = {}

    def put(self, trace: Trace) -> None:
        with self._lock:
            if len(self._ring) >= self.capacity:
                evicted = self._ring.popleft()
                self._by_id.pop(evicted.trace_id, None)
            self._ring.append(trace)
            self._by_id[trace.trace_id] = trace

    def get(self, trace_id: str) -> Trace | None:
        with self._lock:
            return self._by_id.get(trace_id)

    def recent(self, limit: int = 50) -> list[Trace]:
        """The newest retained traces, newest first."""
        with self._lock:
            traces = list(self._ring)
        traces.reverse()
        return traces[: max(0, limit)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class Tracer:
    """Issues trace IDs at the front door and decides retention.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry` for
        the ``tracing.sampled`` / ``tracing.slow_captured`` /
        ``tracing.dropped`` counters.
    sample_rate:
        Head-sampling probability in ``[0, 1]``; drawn from a seeded
        :class:`random.Random` so runs replay deterministically.
    slow_trace_ms:
        Tail-capture threshold; ``None`` disables the slow criterion
        (outcome-based tail capture still applies while enabled).
    capacity:
        Ring size of the backing :class:`TraceStore`.
    seed:
        Seed for the head-sampling RNG.
    """

    def __init__(
        self,
        registry=None,
        sample_rate: float = 0.0,
        slow_trace_ms: float | None = None,
        capacity: int = 512,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("trace sample rate must be within [0, 1]")
        self.registry = registry
        self.sample_rate = sample_rate
        self.slow_trace_ms = slow_trace_ms
        self.enabled = sample_rate > 0.0 or slow_trace_ms is not None
        self.store = TraceStore(capacity)
        self._rng = random.Random(seed ^ 0x7ACE)
        self._rng_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._id_prefix = f"t{seed & 0xFFFF:04x}"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def begin(
        self, name: str, kind: str, started: float | None = None
    ) -> Trace | None:
        """Open a trace for one request; ``None`` when tracing is off.

        Every request is traced while the tracer is enabled — head
        sampling decides *guaranteed* retention up front, tail capture
        decides the rest at :meth:`finish` — so a shed or degraded
        request is always retrievable even at a low sample rate.
        ``started`` backdates the origin to the admission instant when
        the caller measured queue wait before the trace existed.
        """
        if not self.enabled:
            return None
        if self.sample_rate >= 1.0:
            sampled = True
        elif self.sample_rate <= 0.0:
            sampled = False
        else:
            with self._rng_lock:
                sampled = self._rng.random() < self.sample_rate
        if sampled and self.registry is not None:
            self.registry.inc("tracing.sampled")
        trace_id = f"{self._id_prefix}-{next(self._ids):08x}"
        return Trace(trace_id, name, kind, sampled, started=started)

    def finish(self, trace: Trace | None, outcome: str | None = None) -> None:
        """Close ``trace`` and retain or drop it.

        Retained: head-sampled traces; traces slower than
        ``slow_trace_ms``; traces with a :data:`TAIL_OUTCOMES` outcome.
        Everything else counts into ``tracing.dropped``.
        """
        if trace is None:
            return
        duration_ms = trace.finish(outcome)
        slow = self.slow_trace_ms is not None and duration_ms >= self.slow_trace_ms
        tail = slow or trace.outcome in TAIL_OUTCOMES
        if trace.sampled or tail:
            self.store.put(trace)
            if not trace.sampled and self.registry is not None:
                self.registry.inc("tracing.slow_captured")
        elif self.registry is not None:
            self.registry.inc("tracing.dropped")
        if slow and trace.annotations.get("query") is not None:
            self._log_slow_query(trace)

    def _log_slow_query(self, trace: Trace) -> None:
        """Emit the structured slow-query JSON log line."""
        notes = trace.annotations
        slow_query_logger.info(
            json.dumps(
                {
                    "event": "slow_query",
                    "trace_id": trace.trace_id,
                    "query": notes.get("query"),
                    "strategy": notes.get("strategy"),
                    "cached": notes.get("cached"),
                    "epoch": notes.get("epoch"),
                    "pages": notes.get("pages"),
                    "outcome": trace.outcome,
                    "latency_ms": round(trace.duration_ms or 0.0, 4),
                    "phases": {k: round(v, 4) for k, v in trace.phases.items()},
                },
                sort_keys=True,
            )
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        """Headline tracer state for reports and ``/trace/recent``."""
        return {
            "enabled": self.enabled,
            "sample_rate": self.sample_rate,
            "slow_trace_ms": self.slow_trace_ms,
            "capacity": self.store.capacity,
            "retained": len(self.store),
        }
