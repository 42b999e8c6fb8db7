"""Execution contexts: one object owning accounting, buffering, measuring.

Historically every charged operation in this library threaded a bare
``buffer=None`` parameter from the public API down to the B+ tree nodes.
That worked for single measurements but left three concerns scattered
across ~60 call sites: *which* :class:`~repro.storage.stats.AccessStats`
gets charged, *what buffer* governs distinct-page counting (the paper's
Yao-style per-operation scope, or one buffer that outlives operations),
and *how* one measurement is delimited (snapshot / delta pairs
copy-pasted per caller).

:class:`ExecutionContext` consolidates all three:

* it owns the :class:`~repro.storage.stats.AccessStats` counters;
* it gives every operation its buffer: a fresh per-operation
  :class:`~repro.storage.stats.BufferScope` (the analytical model's
  assumption), or the one buffer it was constructed with (a view of a
  finite shared pool, typically, whose LIRS replacement evicts only
  from the pages not re-touched within its LIR set's reuse distance);
* it delimits **measured operations**: named, optionally nested
  intervals whose page-access delta is taken once, published as the
  ``span.pages`` histogram and — when a request trace is active on the
  thread (:func:`~repro.telemetry.tracing.current_trace`, read once per
  operation) — written as one row of that trace, seconds and pages side
  by side.  The context itself retains no per-operation record.  A
  measured operation is a :class:`Measured` (a plain class with
  ``__enter__`` / ``__exit__``, no generator frame), and its ``ops`` /
  ``span.pages`` publications go through registry handles bound once per
  operation name and context.

Every storage / ASR / query entry point accepts either an
``ExecutionContext`` or a raw buffer scope through its ``context``
parameter; :func:`resolve_buffer` performs the normalization once at
the API boundary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.errors import ExitHookError
from repro.storage.stats import (
    AccessStats,
    BufferScope,
    NullBuffer,
    SharedBufferPool,
    WorkerScope,
    resolve_buffer,
)
from repro.telemetry.tracing import current_trace, record_pages

__all__ = ["ExecutionContext", "Measured", "resolve_buffer"]

#: What a context charges: anything with ``touch`` / ``touch_write`` / ``stats``.
Buffer = BufferScope | NullBuffer | SharedBufferPool | WorkerScope


class Measured:
    """One measured operation: what :meth:`ExecutionContext.measure` returns.

    A plain context manager (no generator frame): entering counts the
    operation, opens its buffer and — when a request trace is active on
    the thread — its trace row; leaving takes the page delta once.
    ``buffer`` is the scope to charge inside the block; ``delta`` is the
    interval's :class:`~repro.storage.stats.AccessStats` delta, set when
    the block closes.
    """

    __slots__ = (
        "buffer", "delta", "_context", "_name", "_notes", "_before", "_span", "_row"
    )

    def __init__(self, context: "ExecutionContext", name: str, notes: dict) -> None:
        self._context = context
        self._name = name
        self._notes = notes
        self.buffer: Buffer | None = None
        self.delta: AccessStats | None = None

    def __enter__(self) -> "Measured":
        context = self._context
        context.count(self._name)
        self.buffer = context.new_scope()
        self._before = context.stats.snapshot()
        context._buffer_stack.append(self.buffer)
        trace = current_trace()
        if trace is None:
            self._span = self._row = None
        else:
            self._span = trace.span(self._name)
            self._row = self._span.__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        context = self._context
        if self._span is not None:
            self._span.__exit__(*exc_info)
        context._buffer_stack.pop()
        delta = self.delta = context.stats.delta_since(self._before)
        if self._row is not None:
            record_pages(self._row, delta, **self._notes)
        if context.metrics is not None:
            context._publish_pages(self._name, delta.total)


class ExecutionContext:
    """Owns accounting, buffering, and measuring for one execution.

    Parameters
    ----------
    buffer:
        ``None`` (default): each measured operation gets a fresh
        :class:`BufferScope` — the per-operation distinct-page counting
        the analytical model assumes (section 5.6).  Otherwise the
        externally owned scope (anything with ``touch`` / ``touch_write``
        / ``stats``: a :class:`~repro.storage.stats.WorkerScope` over a
        :class:`~repro.storage.stats.SharedBufferPool`, the pool itself,
        a :class:`~repro.storage.stats.NullBuffer`) that *is* the buffer
        of every operation and of the ambient scope — residency survives
        operation boundaries — and ``context.stats is buffer.stats``.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`.  Every
        per-operation scope the context creates consults it on charged
        page accesses (a supplied ``buffer`` carries its own), and
        subsystems holding the context (the ASR manager's flush and
        recovery pipeline) consult its named crash points — so one
        policy object makes a whole execution's failures reproducible.
    metrics:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`.
        When attached, every completed operation publishes its page
        delta into the ``span.pages`` histogram (labelled by operation
        name) and :meth:`count` mirrors operation counters into the
        ``ops`` counter family — the registry is how many contexts'
        operations aggregate into one observable surface.  Each label
        set is bound once per context
        (:meth:`~repro.telemetry.registry.MetricsRegistry.bind_counter`),
        so a repeated operation skips building the label key.

    Use as a context manager to get an explicit lifetime boundary::

        with ExecutionContext() as ctx:
            evaluator = QueryEvaluator(db, store, context=ctx)
            ...
        print(ctx.to_dict())

    Exit hooks (:meth:`add_exit_hook`) run at that boundary — the
    :class:`~repro.asr.manager.ASRManager` uses this to flush batched
    maintenance when its context closes.
    """

    def __init__(
        self, buffer: Buffer | None = None, fault_injector=None, metrics=None
    ) -> None:
        self.buffer = buffer
        self.stats: AccessStats = AccessStats() if buffer is None else buffer.stats
        self.fault_injector = fault_injector
        self.metrics = metrics
        #: ``operation name -> times entered`` counters.
        self.op_counts: dict[str, int] = {}
        #: Metric snapshots interleaved with the trace (``--trace``).
        self.metric_snapshots: list[dict] = []
        self._buffer_stack: list[Buffer] = []
        self._ambient: Buffer | None = buffer
        self._exit_hooks: list[Callable[[], None]] = []
        self._closed = False
        #: ``ops{op}`` counters / ``span.pages{op}`` histograms of
        #: ``metrics``, bound on first use.
        self._ops: dict = {}
        self._pages: dict = {}

    # ------------------------------------------------------------------
    # buffer management
    # ------------------------------------------------------------------

    def new_scope(self) -> Buffer:
        """One operation's buffer: the supplied one, else a fresh scope."""
        if self.buffer is not None:
            return self.buffer
        return BufferScope(self.stats, self.fault_injector)

    @property
    def current_buffer(self) -> Buffer:
        """The buffer accesses are charged to right now.

        Inside an :meth:`operation` this is the operation's scope;
        outside, a context-lifetime ambient scope (created lazily) so
        that charging through a bare context is always well defined.
        """
        if self._buffer_stack:
            return self._buffer_stack[-1]
        if self._ambient is None:
            self._ambient = self.new_scope()
        return self._ambient

    # ------------------------------------------------------------------
    # measuring
    # ------------------------------------------------------------------

    def measure(self, name: str, **notes) -> Measured:
        """Delimit one measured operation: ``with ctx.measure(name) as m``.

        The one place a page delta is taken: ``name`` is counted, the
        operation's buffer is opened, and on exit the delta lands on
        ``m.delta`` and in the ``span.pages`` histogram.  When a request
        trace is active on this thread (read once, on entry) the
        interval is also one row of it — seconds and pages together,
        plus ``notes`` — and with none active no clock is read and
        nothing is retained.  Operations nest: a child's accesses are
        also part of its parent's delta (the deltas are measured on the
        shared stats).
        """
        return Measured(self, name, notes)

    @contextmanager
    def operation(self, name: str) -> Iterator[Buffer]:
        """:meth:`measure` for callers that only charge: yields the scope."""
        with self.measure(name) as measured:
            yield measured.buffer

    def count(self, name: str, n: int = 1) -> None:
        """Bump the ``name`` operation counter by ``n``.

        The single entry point for event counting: updates the local
        :attr:`op_counts` dict and mirrors into the attached metrics
        registry's ``ops`` counter family (labelled by operation name),
        so per-context counts and fleet-wide aggregates stay one call.
        """
        self.op_counts[name] = self.op_counts.get(name, 0) + n
        if self.metrics is not None:
            counter = self._ops.get(name)
            if counter is None:
                counter = self._ops[name] = self.metrics.bind_counter("ops", op=name)
            counter.inc(n)

    def _publish_pages(self, name: str, pages: int) -> None:
        """Observe ``span.pages{op=name}`` (the label set bound once per context)."""
        histogram = self._pages.get(name)
        if histogram is None:
            histogram = self._pages[name] = self.metrics.bind_histogram(
                "span.pages", op=name
            )
        histogram.observe(pages)

    def snapshot_metrics(self, label: str | None = None) -> dict | None:
        """Interleave a registry snapshot with the active trace.

        Appends (and returns) an entry recording the attached registry's
        full state *and* the trace position (``at_span`` — rows recorded
        so far in the thread's active trace, 0 without one), so an
        exported trace shows how metrics evolved between phases.  No-op
        returning ``None`` without a registry.
        """
        if self.metrics is None:
            return None
        trace = current_trace()
        entry = {
            "at_span": 0 if trace is None else len(trace.spans),
            "label": label,
            "metrics": self.metrics.snapshot(),
        }
        self.metric_snapshots.append(entry)
        return entry

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------

    def add_exit_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` when the context closes (LIFO order)."""
        self._exit_hooks.append(hook)

    def close(self) -> None:
        """Run every exit hook (LIFO); further closes are no-ops.

        A hook that raises does not prevent the remaining hooks from
        running — a failing trace exporter must not drop another
        manager's pending flush.  A single failure is re-raised as
        itself once all hooks ran; several are aggregated into an
        :class:`~repro.errors.ExitHookError`.
        """
        if self._closed:
            return
        self._closed = True
        errors: list[BaseException] = []
        while self._exit_hooks:
            hook = self._exit_hooks.pop()
            try:
                hook()
            except BaseException as error:
                errors.append(error)
        if len(errors) == 1:
            raise errors[0]
        if errors:
            aggregate = ExitHookError(errors)
            aggregate.__cause__ = errors[0]
            raise aggregate

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        return None

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Buffer capacity, headline counters, operation counts, snapshots.

        ``capacity`` is the supplied buffer's (``None`` for per-operation
        scopes, which are unbounded).
        """
        out = {
            "capacity": getattr(self.buffer, "capacity", None),
            "page_reads": self.stats.page_reads,
            "page_writes": self.stats.page_writes,
            "total_pages": self.stats.total,
            "by_category": dict(self.stats.by_category),
            "op_counts": dict(self.op_counts),
        }
        if self.metric_snapshots:
            out["metric_snapshots"] = list(self.metric_snapshots)
        return out

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(buffer={type(self.buffer).__name__}, "
            f"reads={self.stats.page_reads}, writes={self.stats.page_writes})"
        )


# The API-boundary normalization shim lives in repro.storage.stats (so the
# storage layer can use it without importing upward); re-exported here as
# the canonical import site for higher layers.
