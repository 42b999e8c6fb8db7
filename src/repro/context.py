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
  ``__enter__`` / ``__exit__``, no generator frame);
* it is the one thing a query publishes to: its :class:`Tally` holds
  ``ops{op}`` (the :attr:`~ExecutionContext.op_counts` dict itself),
  ``span.pages{op}`` and labelled counts, written without a lock by the
  owning thread.  The attached registry reads the tally on demand and
  folds it in once, when the context closes.

Every storage / ASR / query entry point accepts either an
``ExecutionContext`` or a raw buffer scope through its ``context``
parameter; :func:`resolve_buffer` performs the normalization once at
the API boundary, and hands back a buffer that speaks ``touch`` /
``touch_many`` / ``touch_write``: a whole run of pages (a column probe's
leaf chain, an extent scan) is one ``touch_many``, one pool hold.
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
from repro.telemetry.registry import HistogramState
from repro.telemetry.tracing import current_trace, record_pages

__all__ = ["ExecutionContext", "Measured", "Tally", "resolve_buffer"]

#: What a context charges: anything with ``stats`` and the buffer protocol
#: ``touch`` / ``touch_many`` / ``touch_write`` (a run is one pool hold).
Buffer = BufferScope | NullBuffer | SharedBufferPool | WorkerScope


class Tally:
    """One context's publications, read by its registry on demand.

    Thread-confined, like the context's ``op_counts`` (which *is*
    :attr:`counts`): only the thread running the context writes it, with
    plain dict bumps and no lock.  The registry reads it from any thread
    through :meth:`counters` / :meth:`histograms`, which copy each dict
    (one C-level copy, atomic under the GIL for str and tuple keys) and
    each histogram (:meth:`~repro.telemetry.registry.HistogramState.copy`).
    """

    __slots__ = ("counts", "pages", "labelled")

    def __init__(self, counts: dict[str, int]) -> None:
        #: ``op -> n``: read as ``ops{op}``.
        self.counts = counts
        #: ``op -> histogram``: read as ``span.pages{op}``.
        self.pages: dict[str, HistogramState] = {}
        #: ``series -> n`` (:meth:`MetricsRegistry.series` keys).
        self.labelled: dict[tuple, int] = {}

    def counters(self) -> list:
        """``(series, value)`` of every counter, copied.

        ``("ops", (("op", op),))`` is ``MetricsRegistry.series("ops",
        op=op)``, spelled out: a one-label key needs no sorting.
        """
        pairs = [(("ops", (("op", op),)), n) for op, n in self.counts.copy().items()]
        pairs.extend(self.labelled.copy().items())
        return pairs

    def histograms(self) -> list:
        """``(series, state)`` of every histogram, copied."""
        return [
            (("span.pages", (("op", op),)), state.copy())
            for op, state in self.pages.copy().items()
        ]


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
        externally owned scope (anything with ``touch`` /
        ``touch_many`` / ``touch_write`` / ``stats``: a
        :class:`~repro.storage.stats.WorkerScope` over a
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
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`, the
        surface many contexts' operations aggregate into.  The context
        attaches its :class:`Tally` to it on construction: every
        completed operation's page delta lands in the tally's
        ``span.pages{op}`` histogram, :meth:`count` in ``op_counts``
        (read as ``ops{op}``) and :meth:`count_series` in its labelled
        counts, all without a registry call.  The registry reads the
        tally when it is read, and :meth:`close` folds it in once (after
        the exit hooks, so their counts are included) and detaches it; a
        publication after that goes to the registry directly.

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
        #: What this context publishes while it is open (with a registry).
        self._tally: Tally | None = None
        #: True once :meth:`close` folded the tally: publish directly.
        self._folded = False
        if metrics is not None:
            self._tally = Tally(self.op_counts)
            metrics.attach(self._tally)

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

        The single entry point for event counting: one bump of the local
        :attr:`op_counts` dict, which the attached registry reads as its
        ``ops{op=name}`` counter — per-context counts and fleet-wide
        aggregates stay one number.
        """
        counts = self.op_counts
        counts[name] = counts.get(name, 0) + n
        if self._folded:
            self.metrics.inc("ops", n, op=name)

    def count_series(self, series: tuple, n: int = 1) -> None:
        """Add ``n`` to one labelled counter of the attached registry.

        ``series`` is a :meth:`MetricsRegistry.series` key, built once by
        the caller; without a registry this is a no-op.
        """
        if self._folded:
            self.metrics.add(series, n)
        elif self._tally is not None:
            labelled = self._tally.labelled
            labelled[series] = labelled.get(series, 0) + n

    def _publish_pages(self, name: str, pages: int) -> None:
        """Observe ``span.pages{op=name}`` (the caller checked ``metrics``)."""
        if self._folded:
            self.metrics.observe("span.pages", pages, op=name)
            return
        histograms = self._tally.pages
        state = histograms.get(name)
        if state is None:
            state = histograms[name] = HistogramState()
        state.observe(pages)

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
        """Run every exit hook (LIFO), then fold the tally; further closes
        are no-ops.

        A hook that raises does not prevent the remaining hooks from
        running — a failing trace exporter must not drop another
        manager's pending flush.  The tally is folded into the registry
        after the last hook, whatever the hooks did.  A single failure
        is re-raised as itself once all hooks ran; several are
        aggregated into an :class:`~repro.errors.ExitHookError`.
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
        if self._tally is not None:
            self.metrics.fold(self._tally)
            self._tally = None
            self._folded = True
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
