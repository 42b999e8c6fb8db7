"""Concurrency primitives: a readers-writer lock and a context pool.

Everything built in the earlier layers — buffer scopes, execution
contexts, the ASR manager's batch/delta pipeline — was single-threaded.
This module supplies the two pieces that make the hot path safely
concurrent:

* :class:`RWLock` — a reentrant readers-writer lock.  The
  :class:`~repro.asr.manager.ASRManager` holds one: queries take the
  read side (many may probe and read ASR trees at once), while event
  maintenance, flushes, recovery, and registration changes take the
  write side (tree mutations and CONSISTENT→APPLYING→… state
  transitions are exclusive).
* :class:`ContextPool` — the per-connection-context idiom: each worker
  thread acquires its *own* :class:`~repro.context.ExecutionContext`
  (private per-operation accounting) while all of them share one
  :class:`~repro.storage.stats.SharedBufferPool` of bounded capacity.

The invariant that makes the accounting trustworthy under contention:
the pool decides every charge and records it once, in the record of
the worker that caused it (through its
:class:`~repro.storage.stats.WorkerScope`), so

    pool misses  ==  Σ over workers of recorded reads + writes

which the concurrency stress suite asserts after mixed traffic.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.context import ExecutionContext
from repro.storage.stats import AccessStats, SharedBufferPool, WorkerScope
from repro.telemetry.tracing import current_trace

__all__ = ["RWLock", "ContextPool"]


class _Hold:
    """A stateless ``with`` block over one side of an :class:`RWLock`.

    Holds no per-entry state (the lock counts per thread), so one
    instance serves every thread and every nesting level; a class, not a
    generator, because a query takes it once per operation.
    """

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire, self._release = acquire, release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc_info) -> None:
        self._release()


class RWLock:
    """A readers-writer lock with a reentrant writer and writer preference.

    * Any number of threads may hold the read side at once.
    * The write side is exclusive against readers and other writers.
    * The writing thread may re-acquire the write side (nesting — e.g.
      ``close()`` flushing inside its own write section) and may take
      the read side while writing.
    * Upgrading (read held, write requested by the same thread) is
      refused with :class:`RuntimeError` instead of deadlocking.
    * **Writers are preferred**: once a writer is queued, threads that do
      not already hold the read (or write) side stop being admitted as
      readers, so a saturating read stream cannot starve ``flush`` or
      ``recover`` indefinitely — the queued writer acquires as soon as
      the readers admitted before it drain.  Threads already holding the
      read side may still re-acquire it (reentrant reads), otherwise a
      waiting writer and a nested read would deadlock each other.

    ``metrics`` (optional, also settable after construction) is a
    :class:`~repro.telemetry.registry.MetricsRegistry` into which every
    non-reentrant write acquisition publishes its queueing delay as the
    ``lock.writer_wait_ms`` histogram — the update-latency tail the serve
    benchmarks watch.  An uncontended acquisition observes 0.0 without
    reading the clock, so the fast path stays wall-clock-free.
    """

    def __init__(self, metrics=None) -> None:
        # A plain mutex under the condition: every hold below is a
        # C-level ``with`` (nothing re-enters it).
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._write_depth = 0
        self._writers_waiting = 0
        self.metrics = metrics
        self._read = _Hold(self.acquire_read, self.release_read)
        self._write = _Hold(self.acquire_write, self.release_write)

    def read(self) -> "_Hold":
        """``with lock.read():`` — the read side for the block."""
        return self._read

    def write(self) -> "_Hold":
        """``with lock.write():`` — the write side for the block."""
        return self._write

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._may_read(me):
                # Uncontended fast path: no clock read, no trace lookup.
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            trace = current_trace()
            start = time.perf_counter() if trace is not None else None
            while not self._may_read(me):
                self._cond.wait()
            self._readers[me] = self._readers.get(me, 0) + 1
        if start is not None:
            waited_ms = (time.perf_counter() - start) * 1e3
            trace.add_phase("concurrency.lock.read", "lock.read", waited_ms)

    def _may_read(self, me: int) -> bool:
        """Whether ``me`` may be admitted as a reader right now."""
        if self._writer == me:
            return True  # reading under one's own write lock
        if self._writer is not None:
            return False
        # Writer preference: a queued writer blocks *new* readers, but a
        # thread already holding the read side may re-enter.
        return not self._writers_waiting or bool(self._readers.get(me))

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            count = self._readers.get(me, 0)
            if count > 1:
                self._readers[me] = count - 1
                return
            self._readers.pop(me, None)
            # Only a queued writer waits on readers draining; a released
            # read never admits a waiting reader (those wait on writers).
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        me = threading.get_ident()
        start = None
        with self._mutex:
            if self._writer == me:
                self._write_depth += 1
                return
            if self._readers.get(me):
                raise RuntimeError(
                    "read->write upgrade is not supported: release the read "
                    "side before requesting the write side"
                )
            trace = None
            if self._writer is not None or self._readers:
                trace = current_trace()
                if self.metrics is not None or trace is not None:
                    start = time.perf_counter()
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            except BaseException:
                # Readers held back for this writer must not wait on it.
                self._writers_waiting -= 1
                self._cond.notify_all()
                raise
            self._writers_waiting -= 1
            self._writer = me
            self._write_depth = 1
        waited_ms = 0.0 if start is None else (time.perf_counter() - start) * 1e3
        if self.metrics is not None:
            self.metrics.observe("lock.writer_wait_ms", waited_ms)
        if trace is not None and start is not None:
            trace.add_phase("concurrency.lock.write", "lock.write", waited_ms)

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._mutex:
            if self._writer != me:
                raise RuntimeError("release_write by a thread not holding the lock")
            self._write_depth -= 1
            if self._write_depth == 0:
                self._writer = None
                self._cond.notify_all()

    @property
    def write_held(self) -> bool:
        """True when the *calling* thread holds the write side."""
        return self._writer == threading.get_ident()

    @property
    def writers_waiting(self) -> int:
        """Writers currently queued (blocking new reader admissions)."""
        with self._mutex:
            return self._writers_waiting


class ContextPool:
    """Hands each worker its own context over one shared buffer pool.

    Parameters
    ----------
    capacity:
        Page capacity of the shared pool, whose LIRS replacement keeps
        all but ``max(1, capacity // 100)`` frames for the pages
        re-touched at the shortest distance.
    fault_injector:
        Optional injector consulted by the shared pool on charged
        accesses (under the pool lock, so fault decisions are
        serialized and reproducible per access sequence).
    metrics:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`.
        Registered as lazy callable gauges at construction (capacity,
        residency, hits/misses/hit rate, evictions, live occupancy,
        contexts recycled), passed to every acquired context, and the
        target of :meth:`check_accounting` — the pool never pays for
        metrics on the touch path.

    Usage, per worker thread or per served operation::

        pool = ContextPool(capacity=256)
        def worker():
            with pool.context() as ctx:
                evaluator = QueryEvaluator(db, store, context=ctx)
                ...

    Every context created by :meth:`acquire` has a *private*
    :class:`~repro.storage.stats.AccessStats` (so its operations measure
    only its own thread's accesses) and charges the shared pool through a
    :class:`~repro.storage.stats.WorkerScope`; each miss the pool counts
    is recorded in exactly one of those records.

    **Recycling.**  :meth:`release` (and the :meth:`context` manager)
    retires a finished context: its exit hooks run and its private stats
    fold into the pool's :attr:`retired` accumulator.  :attr:`contexts`
    therefore lists only *live* contexts, :attr:`stats` is retired plus
    every live record, and the accounting invariant is

        pool misses  ==  (retired + Σ live per-worker totals).total

    which :meth:`check_accounting` evaluates (and publishes).
    """

    def __init__(self, capacity: int, fault_injector=None, metrics=None) -> None:
        if capacity < 1:
            raise ValueError("pool capacity must be at least one page")
        self.capacity = capacity
        self.fault_injector = fault_injector
        self.metrics = metrics
        # The pool's own record takes only touches that bypass every
        # context, which :meth:`check_accounting` then reports.
        self.pool = SharedBufferPool(AccessStats(), capacity, fault_injector)
        #: Accumulated private stats of every retired (released) context.
        self.retired = AccessStats()
        #: Contexts retired through :meth:`release` so far.
        self.recycled = 0
        self._lock = threading.Lock()
        self._contexts: list[ExecutionContext] = []
        if metrics is not None:
            self._register_gauges(metrics)

    def _register_gauges(self, metrics) -> None:
        """Register the pool's lazy gauges (evaluated at snapshot time)."""
        metrics.gauge_fn("pool.capacity", lambda: self.capacity)
        metrics.gauge_fn("pool.resident_pages", lambda: self.pool.distinct_pages)
        metrics.gauge_fn("pool.hits", lambda: self.pool.hits)
        metrics.gauge_fn("pool.misses", lambda: self.pool.misses)
        metrics.gauge_fn("pool.hit_rate", lambda: self.pool.hit_rate)
        metrics.gauge_fn("pool.evictions", lambda: self.pool.evictions)
        metrics.gauge_fn("pool.occupancy", lambda: len(self.contexts))
        metrics.gauge_fn("pool.recycled", lambda: self.recycled)

    def acquire(self) -> ExecutionContext:
        """A worker context sharing this pool's buffer frames."""
        context = ExecutionContext(
            buffer=WorkerScope(self.pool, AccessStats()),
            fault_injector=self.fault_injector,
            metrics=self.metrics,
        )
        with self._lock:
            self._contexts.append(context)
        return context

    def release(self, context: ExecutionContext) -> None:
        """Retire ``context``: close it and fold its stats.

        The context's private totals move into :attr:`retired` even when
        an exit hook raises, so the accounting invariant holds across
        failures.  Releasing a context the pool does not own (or twice)
        is a no-op beyond closing it.
        """
        try:
            context.close()
        finally:
            with self._lock:
                if context in self._contexts:
                    self._contexts.remove(context)
                    self.retired.merge(context.stats)
                    self.recycled += 1

    @contextmanager
    def context(self) -> Iterator[ExecutionContext]:
        """``with pool.context() as ctx`` — acquire, then retire on exit."""
        ctx = self.acquire()
        try:
            yield ctx
        finally:
            self.release(ctx)

    @property
    def contexts(self) -> list[ExecutionContext]:
        """The *live* contexts (acquired and not yet released)."""
        with self._lock:
            return list(self._contexts)

    @property
    def stats(self) -> AccessStats:
        """Every recorded charge: retired plus every live context's stats."""
        totals = AccessStats()
        with self._lock:
            totals.merge(self.retired)
            for context in self._contexts:
                totals.merge(context.stats)
        return totals

    def check_accounting(self, registry=None) -> dict:
        """Evaluate (and publish) the misses-vs-records invariant.

        Returns a JSON-able dict with both sides and an ``ok`` flag;
        when a registry is attached (or passed), the same numbers are
        published as ``accounting.*`` gauges so the invariant is
        assertable *through the registry*.  Only meaningful at a
        quiescent point (no worker mid-charge).
        """
        recorded = self.stats
        result = {
            "pool_misses": self.pool.misses,
            "recorded_reads": recorded.page_reads,
            "recorded_writes": recorded.page_writes,
            "ok": recorded.total == self.pool.misses,
        }
        registry = registry if registry is not None else self.metrics
        if registry is not None:
            registry.set_gauge("accounting.pool_misses", result["pool_misses"])
            registry.set_gauge("accounting.recorded_reads", result["recorded_reads"])
            registry.set_gauge("accounting.recorded_writes", result["recorded_writes"])
            registry.set_gauge("accounting.ok", 1.0 if result["ok"] else 0.0)
        return result

    def close(self) -> None:
        """Retire every live context (runs their exit hooks)."""
        for context in self.contexts:
            self.release(context)

    def describe(self) -> dict:
        """Headline pool counters, JSON-able (for benchmark reports)."""
        with self._lock:
            # The records' ints only: live workers may be charging their
            # ``by_category`` dicts.
            records = [self.retired, *(context.stats for context in self._contexts)]
            page_reads = sum(record.page_reads for record in records)
            page_writes = sum(record.page_writes for record in records)
            contexts, recycled = len(self._contexts), self.recycled
        return {
            "capacity": self.capacity,
            "resident_pages": self.pool.distinct_pages,
            "hits": self.pool.hits,
            "misses": self.pool.misses,
            "hit_rate": round(self.pool.hit_rate, 4),
            "evictions": self.pool.evictions,
            "page_reads": page_reads,
            "page_writes": page_writes,
            "contexts": contexts,
            "recycled": recycled,
        }
