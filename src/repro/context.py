"""Execution contexts: one object owning accounting, buffering, tracing.

Historically every charged operation in this library threaded a bare
``buffer=None`` parameter from the public API down to the B+ tree nodes.
That worked for single measurements but left three concerns scattered
across ~60 call sites: *which* :class:`~repro.storage.stats.AccessStats`
gets charged, *what buffer policy* governs distinct-page counting (the
paper's Yao-style per-operation buffer, a bounded LRU pool, or no
caching at all), and *how* one measurement is delimited (snapshot /
delta pairs copy-pasted per caller).

:class:`ExecutionContext` consolidates all three:

* it owns the :class:`~repro.storage.stats.AccessStats` counters;
* it instantiates buffer scopes according to a declared policy
  (``unbounded`` — the analytical model's assumption, ``bounded`` — a
  finite LRU pool persisting across operations, ``null`` — every touch
  charged);
* it records **operation spans**: named, optionally nested measurement
  intervals with their page-access deltas, exportable as a dict / JSON
  (the CLI's ``--trace`` flag writes exactly this).

Every storage / ASR / query entry point accepts either an
``ExecutionContext`` or a raw buffer scope through its ``context``
parameter; :func:`resolve_buffer` performs the normalization once at
the API boundary.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ExitHookError
from repro.storage.stats import (
    AccessStats,
    BoundedBufferScope,
    BufferScope,
    NullBuffer,
    resolve_buffer,
)

__all__ = ["ExecutionContext", "Span", "resolve_buffer", "POLICIES"]

#: Recognized buffer policies (see :class:`ExecutionContext`).
POLICIES = ("unbounded", "bounded", "null")


@dataclass
class Span:
    """One traced operation: a named interval with its access delta."""

    name: str
    index: int
    depth: int
    page_reads: int = 0
    page_writes: int = 0
    by_category: dict[str, int] = field(default_factory=dict)

    @property
    def total_pages(self) -> int:
        return self.page_reads + self.page_writes

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "index": self.index,
            "depth": self.depth,
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "total_pages": self.total_pages,
            "by_category": dict(self.by_category),
        }


class ExecutionContext:
    """Owns accounting, buffer policy, and tracing for one execution.

    Parameters
    ----------
    policy:
        ``"unbounded"`` (default): each operation gets a fresh
        :class:`BufferScope` — the per-operation distinct-page counting
        the analytical model assumes (section 5.6).
        ``"bounded"``: one :class:`BoundedBufferScope` of ``capacity``
        pages shared by *all* operations of the context — a real,
        finite buffer pool whose residency survives operation
        boundaries.
        ``"null"``: a :class:`NullBuffer` — every touch is charged.
    capacity:
        LRU capacity in pages; required for (and only meaningful under)
        the ``bounded`` policy.
    stats:
        An existing :class:`AccessStats` to charge; a fresh one by
        default.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`.  Every buffer
        scope the context creates consults it on charged page accesses,
        and subsystems holding the context (the ASR manager's flush and
        recovery pipeline) consult its named crash points — so one
        policy object makes a whole execution's failures reproducible.
    shared_buffer:
        Optional externally owned buffer scope (typically a
        :class:`~repro.storage.stats.WorkerScope` over a
        :class:`~repro.storage.stats.SharedBufferPool`) used as *the*
        scope for every operation of this context — the per-connection
        idiom of :class:`~repro.concurrency.ContextPool`, where many
        contexts share one bounded pool.  Only meaningful under the
        ``bounded`` policy; ``capacity`` then describes the shared
        pool and may be omitted.
    metrics:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`.
        When attached, every completed span publishes its page delta
        into the ``span.pages`` histogram (labelled by operation name),
        :meth:`count` mirrors operation counters into the ``ops``
        counter family, and dropped spans bump ``spans.dropped`` — the
        registry is how many contexts' traces aggregate into one
        observable surface.
    max_spans:
        Optional bound on the retained span trace.  ``None`` (the
        default) keeps every span, as tests and one-shot measurements
        expect.  Long-lived servers set a bound: :attr:`spans` becomes a
        ring buffer of the most recent ``max_spans`` spans and
        :attr:`spans_dropped` counts the evicted ones (also surfaced in
        :meth:`to_dict` and the metrics registry), so a context serving
        millions of operations holds bounded memory.

    Use as a context manager to get an explicit lifetime boundary::

        with ExecutionContext() as ctx:
            evaluator = QueryEvaluator(db, store, context=ctx)
            ...
        print(ctx.to_json())

    Exit hooks (:meth:`add_exit_hook`) run at that boundary — the
    :class:`~repro.asr.manager.ASRManager` uses this to flush batched
    maintenance when its context closes.
    """

    def __init__(
        self,
        policy: str = "unbounded",
        capacity: int | None = None,
        stats: AccessStats | None = None,
        fault_injector=None,
        shared_buffer=None,
        metrics=None,
        max_spans: int | None = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown buffer policy {policy!r}; known: {POLICIES}")
        if shared_buffer is not None:
            if policy != "bounded":
                raise ValueError("a shared buffer implies the 'bounded' policy")
            if capacity is None:
                capacity = getattr(shared_buffer, "capacity", None)
        elif policy == "bounded" and (capacity is None or capacity < 1):
            raise ValueError("bounded policy requires a positive page capacity")
        if policy != "bounded" and capacity is not None:
            raise ValueError(f"capacity is only meaningful under 'bounded', not {policy!r}")
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be a positive span count")
        self.policy = policy
        self.capacity = capacity
        self.stats = stats if stats is not None else AccessStats()
        self.fault_injector = fault_injector
        self.metrics = metrics
        self.max_spans = max_spans
        #: Completed operation spans, in completion order.  A plain list
        #: when unbounded; a ring of the newest ``max_spans`` otherwise.
        self.spans: list[Span] | deque[Span] = (
            [] if max_spans is None else deque(maxlen=max_spans)
        )
        #: Spans evicted from a full ring buffer (0 when unbounded).
        self.spans_dropped = 0
        #: ``operation name -> times entered`` counters.
        self.op_counts: dict[str, int] = {}
        #: Metric snapshots interleaved with the trace (``--trace``).
        self.metric_snapshots: list[dict] = []
        self._span_stack: list[Span] = []
        self._buffer_stack: list[BufferScope | NullBuffer] = []
        self._ambient: BufferScope | NullBuffer | None = shared_buffer
        self._exit_hooks: list[Callable[[], None]] = []
        self._next_index = 0
        self._closed = False

    # ------------------------------------------------------------------
    # buffer management
    # ------------------------------------------------------------------

    def new_scope(self) -> BufferScope | NullBuffer:
        """A fresh buffer scope under this context's policy."""
        if self.policy == "bounded":
            # The bounded pool is a *shared* resource: residency must
            # survive operation boundaries, so there is only one.
            return self._ambient_scope()
        if self.policy == "null":
            return NullBuffer(self.stats, self.fault_injector)
        return BufferScope(self.stats, self.fault_injector)

    def _ambient_scope(self) -> BufferScope | NullBuffer:
        if self._ambient is None:
            if self.policy == "bounded":
                assert self.capacity is not None
                self._ambient = BoundedBufferScope(
                    self.stats, self.capacity, self.fault_injector
                )
            elif self.policy == "null":
                self._ambient = NullBuffer(self.stats, self.fault_injector)
            else:
                self._ambient = BufferScope(self.stats, self.fault_injector)
        return self._ambient

    @property
    def current_buffer(self) -> BufferScope | NullBuffer:
        """The buffer accesses are charged to right now.

        Inside an :meth:`operation` span this is the span's scope;
        outside, a context-lifetime ambient scope (created lazily) so
        that charging through a bare context is always well defined.
        """
        if self._buffer_stack:
            return self._buffer_stack[-1]
        return self._ambient_scope()

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    @contextmanager
    def operation(self, name: str) -> Iterator[BufferScope | NullBuffer]:
        """Delimit one traced operation; yields its buffer scope.

        The span's page-access delta is recorded on exit.  Operations
        nest: a child span's accesses are also part of its parent's
        delta (the deltas are measured on the shared stats).
        """
        span = Span(name, self._next_index, depth=len(self._span_stack))
        self._next_index += 1
        self.count(name)
        before = self.stats.snapshot()
        buffer = self.new_scope()
        self._span_stack.append(span)
        self._buffer_stack.append(buffer)
        try:
            yield buffer
        finally:
            self._buffer_stack.pop()
            self._span_stack.pop()
            delta = self.stats.delta_since(before)
            span.page_reads = delta.page_reads
            span.page_writes = delta.page_writes
            span.by_category = dict(delta.by_category)
            if self.max_spans is not None and len(self.spans) == self.max_spans:
                self.spans_dropped += 1
                if self.metrics is not None:
                    self.metrics.inc("spans.dropped")
            self.spans.append(span)
            if self.metrics is not None:
                self.metrics.observe("span.pages", span.total_pages, op=name)

    def count(self, name: str, n: int = 1) -> None:
        """Bump the ``name`` operation counter by ``n``.

        The single entry point for event counting: updates the local
        :attr:`op_counts` dict and mirrors into the attached metrics
        registry's ``ops`` counter family (labelled by operation name),
        so per-context counts and fleet-wide aggregates stay one call.
        """
        self.op_counts[name] = self.op_counts.get(name, 0) + n
        if self.metrics is not None:
            self.metrics.inc("ops", n, op=name)

    def snapshot_metrics(self, label: str | None = None) -> dict | None:
        """Interleave a registry snapshot with the span trace.

        Appends (and returns) an entry recording the attached registry's
        full state *and* the trace position (``at_span`` — the index the
        next span will get), so an exported trace shows how metrics
        evolved between phases.  No-op returning ``None`` without a
        registry.
        """
        if self.metrics is None:
            return None
        entry = {
            "at_span": self._next_index,
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
        """The full trace: policy, headline counters, and all spans."""
        out = {
            "policy": self.policy,
            "capacity": self.capacity,
            "page_reads": self.stats.page_reads,
            "page_writes": self.stats.page_writes,
            "total_pages": self.stats.total,
            "by_category": dict(self.stats.by_category),
            "op_counts": dict(self.op_counts),
            "spans": [span.as_dict() for span in self.spans],
            "max_spans": self.max_spans,
            "spans_dropped": self.spans_dropped,
        }
        if self.metric_snapshots:
            out["metric_snapshots"] = list(self.metric_snapshots)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(policy={self.policy!r}, "
            f"reads={self.stats.page_reads}, writes={self.stats.page_writes}, "
            f"spans={len(self.spans)})"
        )


# The API-boundary normalization shim lives in repro.storage.stats (so the
# storage layer can use it without importing upward); re-exported here as
# the canonical import site for higher layers.
