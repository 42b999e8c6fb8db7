"""Page-access accounting.

Every storage structure charges its page touches to an
:class:`AccessStats` instance.  A :class:`BufferScope` models the
per-operation buffer the analytical model implicitly assumes: within one
query or update, re-touching a page that is already resident is free —
this is exactly the "number of *distinct* pages" that Yao's formula
estimates (section 5.6).  The finite pool shared across operations,
:class:`SharedBufferPool`, replaces pages by LIRS: it evicts only from
a small FIFO of pages outside its LIR set, the pages re-touched at the
shortest distance, so a scan longer than the pool cannot flush it.

Buffer scopes are also where simulated storage faults surface: a scope
constructed with a :class:`~repro.faults.FaultInjector` consults it on
every *charged* access (cache hits need no physical I/O and are never
faulted), so the B+ trees and the clustered object store see faults
exactly where a real engine would — on the page read/write boundary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable


@dataclass
class AccessStats:
    """Counters for secondary-storage page accesses.

    ``page_reads``/``page_writes`` are the headline numbers the cost model
    predicts; ``by_category`` breaks them down by the structure that
    caused them (``object``, ``btree_interior``, ``btree_leaf``, …) which
    the validation benchmarks use to compare against individual cost-model
    terms.
    """

    page_reads: int = 0
    page_writes: int = 0
    by_category: dict[str, int] = field(default_factory=dict)

    def read(self, pages: int = 1, category: str = "page") -> None:
        self.page_reads += pages
        self.by_category[category] = self.by_category.get(category, 0) + pages

    def write(self, pages: int = 1, category: str = "page") -> None:
        self.page_writes += pages
        key = f"{category}:write"
        self.by_category[key] = self.by_category.get(key, 0) + pages

    @property
    def total(self) -> int:
        """Total page accesses (reads + writes) — the paper's cost measure."""
        return self.page_reads + self.page_writes

    def snapshot(self) -> "AccessStats":
        clone = AccessStats(self.page_reads, self.page_writes, dict(self.by_category))
        return clone

    def merge(self, other: "AccessStats") -> None:
        """Fold ``other``'s counters into this one.

        Used by :class:`~repro.concurrency.ContextPool` to accumulate a
        retired context's per-worker stats into the pool's running
        ``retired`` total, so the shared-vs-Σ-workers accounting
        invariant survives context recycling.
        """
        self.page_reads += other.page_reads
        self.page_writes += other.page_writes
        for key, count in other.by_category.items():
            self.by_category[key] = self.by_category.get(key, 0) + count

    def delta_since(self, before: "AccessStats") -> "AccessStats":
        """The accesses accumulated since ``before`` (a prior snapshot)."""
        by_category = {
            key: count - before.by_category.get(key, 0)
            for key, count in self.by_category.items()
            if count - before.by_category.get(key, 0)
        }
        return AccessStats(
            self.page_reads - before.page_reads,
            self.page_writes - before.page_writes,
            by_category,
        )


class BufferScope:
    """A per-operation buffer: each distinct page is charged once.

    Storage structures call :meth:`touch` with a hashable page identity;
    the first touch within the scope charges one read to ``stats``,
    subsequent touches are free.  Writes are charged through
    :meth:`touch_write` (a page is written back at most once per scope).

    Use as a context manager around one logical operation::

        with BufferScope(stats) as buffer:
            tree.search(key, buffer)

    (Most callers get their scopes from an
    :class:`~repro.context.ExecutionContext` instead of instantiating
    one directly.)
    """

    def __init__(self, stats: AccessStats, injector=None) -> None:
        self.stats = stats
        #: Optional :class:`~repro.faults.FaultInjector` consulted on
        #: every charged access (duck-typed: anything with
        #: ``on_read``/``on_write``).
        self.injector = injector
        self._resident: set[Hashable] = set()
        self._dirty: set[Hashable] = set()

    def __enter__(self) -> "BufferScope":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def touch(self, page_id: Hashable, category: str = "page") -> bool:
        """Read ``page_id``; returns True when it caused a physical read."""
        if page_id in self._resident:
            return False
        if self.injector is not None:
            self.injector.on_read(page_id, category)
        self._resident.add(page_id)
        self.stats.read(1, category)
        return True

    def touch_write(self, page_id: Hashable, category: str = "page") -> bool:
        """Mark ``page_id`` dirty; returns True on the first write charge."""
        if page_id in self._dirty:
            return False
        if self.injector is not None:
            self.injector.on_write(page_id, category)
        self._dirty.add(page_id)
        self.stats.write(1, category)
        return True

    @property
    def distinct_pages(self) -> int:
        return len(self._resident)

    def evict_all(self) -> None:
        """Forget residency (the next touches are charged again)."""
        self._resident.clear()
        self._dirty.clear()


def resolve_buffer(context=None):
    """Normalize a ``context`` parameter to a raw buffer scope.

    Every charged entry point accepts its accounting sink through a
    ``context`` parameter that may be

    * ``None`` — no accounting (returns ``None``);
    * an :class:`~repro.context.ExecutionContext` — charge its current
      buffer (recognized by its ``current_buffer`` attribute, so this
      module needs no import of the higher layer);
    * a raw buffer scope (anything with ``touch``/``touch_write``) —
      charge it directly, which is how pre-context code passed buffers
      positionally and remains supported.
    """
    if context is None:
        return None
    current = getattr(context, "current_buffer", None)
    if current is not None:
        return current
    if hasattr(context, "touch"):
        return context
    raise TypeError(
        f"expected an ExecutionContext or buffer scope, got {type(context).__name__}"
    )


class NullBuffer:
    """A buffer that charges every touch (no caching) to its stats."""

    def __init__(self, stats: AccessStats, injector=None) -> None:
        self.stats = stats
        self.injector = injector

    def touch(self, page_id: Hashable, category: str = "page") -> bool:
        if self.injector is not None:
            self.injector.on_read(page_id, category)
        self.stats.read(1, category)
        return True

    def touch_write(self, page_id: Hashable, category: str = "page") -> bool:
        if self.injector is not None:
            self.injector.on_write(page_id, category)
        self.stats.write(1, category)
        return True


class ThreadSafeAccessStats(AccessStats):
    """An :class:`AccessStats` whose accumulation is lock-protected.

    Charged concurrently by every worker of a
    :class:`~repro.concurrency.ContextPool`; ``snapshot`` and
    ``delta_since`` take the same lock so a reader never observes a
    half-applied increment (``page_reads`` bumped, ``by_category`` not
    yet).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._lock = threading.Lock()

    def read(self, pages: int = 1, category: str = "page") -> None:
        with self._lock:
            super().read(pages, category)

    def write(self, pages: int = 1, category: str = "page") -> None:
        with self._lock:
            super().write(pages, category)

    def snapshot(self) -> AccessStats:
        with self._lock:
            return AccessStats(
                self.page_reads, self.page_writes, dict(self.by_category)
            )


class SharedBufferPool:
    """The bounded LIRS pool: finite capacity, thread-safe, shared.

    The plain :class:`BufferScope` models the paper's implicit
    assumption of a buffer large enough to hold one operation's working
    set (Yao's distinct-page counting).  The pool bounds residency at
    ``capacity`` pages across operations and threads: re-touching an
    evicted page is charged again, which is what a real, smaller buffer
    pool does.

    Replacement is LIRS (Jiang & Zhang, SIGMETRICS 2002): a page keeps
    one of ``capacity - max(1, capacity // 100)`` LIR frames while it is
    re-touched sooner than the oldest LIR page was, and every eviction
    takes the oldest of the few HIR frames, so a loop longer than the
    pool keeps a fixed part of itself resident instead of missing on
    every touch, as it would under LRU.  The recency stack ``S`` holds
    the LIR pages, the HIR pages touched since its bottom (always a LIR
    page) and at most ``capacity`` non-resident "ghost" entries that
    let an evicted page prove a short re-touch distance.

    Writes participate in residency and recency exactly like reads: a
    written page occupies a frame, dirtying it counts as a touch, and a
    page written again after eviction is charged a second write (the
    first write-back already happened at eviction time, so a ghost
    carries no dirty flag).

    One lock covers the residency decision, the LIRS bookkeeping, the
    fault consultation, the stats charge and the hit/miss counters, so
    concurrent touches can never tear the stack or double-charge a
    resident page.  The injector is consulted *before* anything
    mutates: a faulted touch leaves ``S``, the HIR queue, the stats and
    the counters as they were.  :attr:`hit_rate` is the headline number
    the serve benchmark reports.

    Workers reach the pool through :class:`WorkerScope` views (usually
    via :class:`~repro.concurrency.ContextPool`), which mirror each
    worker's charges onto a thread-private :class:`AccessStats` — the
    shared totals then provably equal the per-worker sums.  A
    single-threaded caller (the buffer-size ablation) touches it
    directly.
    """

    def __init__(self, stats: AccessStats, capacity: int, injector=None) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least one page")
        self.stats = stats
        self.capacity = capacity
        #: Frames held by LIR pages; the rest (at least one) cycle HIR pages.
        self.lir_capacity = capacity - max(1, capacity // 100)
        self.injector = injector
        #: Resident pages pushed out since construction.
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        # The recency stack S, bottom first; its bottom is always LIR.
        # Ordered dicts, not dicts: S, the queue and the ghosts are read
        # from the front, which a dict reaches only by scanning past the
        # slots of every key deleted there since it last resized.
        self._stack: OrderedDict[Hashable, None] = OrderedDict()
        self._bottom: Hashable = None
        # Resident pages -> dirty flag: the LIR set, and the HIR queue
        # whose first page is the next victim.
        self._lir: dict[Hashable, bool] = {}
        self._hir: OrderedDict[Hashable, bool] = OrderedDict()
        # Non-resident pages still in S, in stack order.
        self._ghosts: OrderedDict[Hashable, None] = OrderedDict()

    def _prune(self) -> None:
        """Drop the HIR and ghost entries below the lowest LIR page of S."""
        stack, lir, ghosts = self._stack, self._lir, self._ghosts
        while True:
            page_id = next(iter(stack))
            if page_id in lir:
                self._bottom = page_id
                return
            del stack[page_id]
            ghosts.pop(page_id, None)

    def _promote(self, page_id: Hashable, dirty: bool) -> None:
        """Make ``page_id`` (in S) LIR on top; the bottom LIR page turns HIR."""
        stack = self._stack
        stack.move_to_end(page_id)
        self._lir[page_id] = dirty
        bottom = self._bottom
        del stack[bottom]
        self._hir[bottom] = self._lir.pop(bottom)
        self._prune()

    def _hit(self, page_id: Hashable) -> None:
        """Reorder for a touch of resident ``page_id`` (lock held)."""
        if page_id in self._lir:
            self._stack.move_to_end(page_id)
            if page_id == self._bottom:
                self._prune()
            return
        dirty = self._hir.pop(page_id)
        if page_id in self._stack:
            self._promote(page_id, dirty)
        else:
            self._hir[page_id] = dirty
            if self._stack:
                self._stack[page_id] = None

    def _admit(self, page_id: Hashable, dirty: bool) -> None:
        """Count the miss and give ``page_id`` a frame (lock held)."""
        self.misses += 1
        stack, lir, hir, ghosts = self._stack, self._lir, self._hir, self._ghosts
        if len(lir) < self.lir_capacity:
            if not stack:
                self._bottom = page_id
            stack[page_id] = None
            lir[page_id] = dirty
            return
        if len(lir) + len(hir) >= self.capacity:
            victim, _ = hir.popitem(last=False)  # its dirty flag goes too
            self.evictions += 1
            if victim in stack:
                ghosts[victim] = None
        if page_id in ghosts:
            del ghosts[page_id]
            self._promote(page_id, dirty)
            return
        hir[page_id] = dirty
        if stack:
            stack[page_id] = None
        if len(ghosts) > self.capacity:
            oldest, _ = ghosts.popitem(last=False)
            del stack[oldest]

    def touch(self, page_id: Hashable, category: str = "page") -> bool:
        """Read ``page_id``; returns True when it caused a physical read."""
        with self._lock:
            if page_id in self._lir:
                # The common hit, inlined: one move, and a prune only
                # when the page was the stack bottom.
                self._stack.move_to_end(page_id)
                if page_id == self._bottom:
                    self._prune()
                self.hits += 1
                return False
            if page_id in self._hir:
                self._hit(page_id)
                self.hits += 1
                return False
            if self.injector is not None:
                self.injector.on_read(page_id, category)
            self.stats.read(1, category)
            self._admit(page_id, False)
            return True

    def touch_write(self, page_id: Hashable, category: str = "page") -> bool:
        """Mark ``page_id`` dirty; returns True when the write is charged."""
        with self._lock:
            dirty = self._lir.get(page_id)
            if dirty is None:
                dirty = self._hir.get(page_id)
            if dirty:
                self._hit(page_id)
                self.hits += 1
                return False
            if self.injector is not None:
                self.injector.on_write(page_id, category)
            self.stats.write(1, category)
            if dirty is None:
                self._admit(page_id, True)
                return True
            # A clean resident page: the write is charged, the frame kept.
            self.misses += 1
            self._hit(page_id)
            if page_id in self._lir:
                self._lir[page_id] = True
            else:
                self._hir[page_id] = True
            return True

    @property
    def distinct_pages(self) -> int:
        with self._lock:
            return len(self._lir) + len(self._hir)

    def evict_all(self) -> None:
        """Forget residency (the next touches are charged again)."""
        with self._lock:
            self._stack.clear()
            self._lir.clear()
            self._hir.clear()
            self._ghosts.clear()
            self._bottom = None

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def check_invariants(self) -> None:
        """Assert the LIRS state is not torn (used by the stress suite)."""
        with self._lock:
            stack, lir, hir, ghosts = self._stack, self._lir, self._hir, self._ghosts
            resident = lir.keys() | hir.keys()
            assert len(resident) <= self.capacity, (
                f"pool overflow: {len(resident)} frames > capacity {self.capacity}"
            )
            assert len(lir) <= self.lir_capacity, (
                f"LIR overflow: {len(lir)} pages > {self.lir_capacity}"
            )
            assert len(lir) + len(hir) == len(resident), "a page is both LIR and HIR"
            assert all(
                isinstance(dirty, bool) for dirty in (*lir.values(), *hir.values())
            ), "dirty flags torn"
            assert lir.keys() <= stack.keys(), "a LIR page fell out of S"
            if stack:
                bottom = next(iter(stack))
                assert bottom in lir and bottom == self._bottom, (
                    f"stack bottom {bottom!r} is not the LIR bottom"
                )
            assert len(ghosts) <= self.capacity, (
                f"{len(ghosts)} ghosts > capacity {self.capacity}"
            )
            assert ghosts.keys() <= stack.keys() and not ghosts.keys() & resident, (
                "a ghost is resident or outside S"
            )
            assert stack.keys() <= resident | ghosts.keys(), "S holds a stray page"


class WorkerScope:
    """One worker's view of a :class:`SharedBufferPool`.

    Residency and replacement are decided by the shared pool (which
    charges the shared stats); every charge is *mirrored* onto the
    worker's private ``stats`` so operation spans measured on a single
    worker stay accurate even while other workers charge the pool
    concurrently.  The private stats are only ever touched by the
    owning thread, so they need no lock.
    """

    def __init__(self, pool: SharedBufferPool, stats: AccessStats) -> None:
        self.pool = pool
        self.stats = stats

    @property
    def capacity(self) -> int:
        return self.pool.capacity

    def touch(self, page_id: Hashable, category: str = "page") -> bool:
        charged = self.pool.touch(page_id, category)
        if charged:
            self.stats.read(1, category)
        return charged

    def touch_write(self, page_id: Hashable, category: str = "page") -> bool:
        charged = self.pool.touch_write(page_id, category)
        if charged:
            self.stats.write(1, category)
        return charged

    @property
    def distinct_pages(self) -> int:
        return self.pool.distinct_pages

    def evict_all(self) -> None:
        self.pool.evict_all()
