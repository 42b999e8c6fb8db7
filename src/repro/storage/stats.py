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
from typing import Hashable, Iterable


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
        retired context's record into the pool's running ``retired``
        total, so the misses-vs-records accounting invariant survives
        context recycling.
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
    subsequent touches are free.  :meth:`touch_many` touches a run of
    pages in order, exactly as that many :meth:`touch` calls would.
    Writes are charged through :meth:`touch_write` (a page is written
    back at most once per scope).

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

    def touch_many(self, page_ids: Iterable[Hashable], category: str = "page") -> int:
        """Read each of ``page_ids`` in order; returns the reads charged.

        The reads are charged to ``stats`` once, also when a fault ends
        the run early (then only the pages before the faulted one).
        """
        resident = self._resident
        injector = self.injector
        charged = 0
        try:
            for page_id in page_ids:
                if page_id in resident:
                    continue
                if injector is not None:
                    injector.on_read(page_id, category)
                resident.add(page_id)
                charged += 1
        finally:
            if charged:
                self.stats.read(charged, category)
        return charged

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
    * a raw buffer scope (anything with ``touch`` / ``touch_many`` /
      ``touch_write``) — charge it directly, which is how pre-context
      code passed buffers positionally and remains supported.
    """
    if context is None:
        return None
    if hasattr(context, "touch"):
        return context
    try:
        return context.current_buffer
    except AttributeError:
        raise TypeError(
            f"expected an ExecutionContext or buffer scope, got {type(context).__name__}"
        ) from None


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

    def touch_many(self, page_ids: Iterable[Hashable], category: str = "page") -> int:
        injector = self.injector
        charged = 0
        try:
            for page_id in page_ids:
                if injector is not None:
                    injector.on_read(page_id, category)
                charged += 1
        finally:
            if charged:
                self.stats.read(charged, category)
        return charged

    def touch_write(self, page_id: Hashable, category: str = "page") -> bool:
        if self.injector is not None:
            self.injector.on_write(page_id, category)
        self.stats.write(1, category)
        return True


# Each context owns its record, charged under the pool's lock, so no
# record needs a lock of its own.  The alias stays only because
# ``benchmarks/ladder/adapter.py`` and ``benchmarks/ladder/layers.py``
# still bind the name.
ThreadSafeAccessStats = AccessStats


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
    fault consultation, the charge and the hit/miss counters, so
    concurrent touches can never tear the stack or double-charge a
    resident page.  The protocol is :meth:`touch` / :meth:`touch_many`
    / :meth:`touch_write`, and a run is one hold: :meth:`touch_many`
    decides a whole run of pages (a column probe's leaf chain, an
    extent scan) under one acquire of the lock, with exactly the
    per-page moves and charges of that many :meth:`touch` calls.  The
    injector is consulted *before* anything mutates: a faulted touch
    leaves ``S``, the HIR queue, the record and the counters as they
    were, and a faulted run keeps what the pages before it did.
    :attr:`hit_rate` is the headline number the serve benchmark reports.

    Every charge is one miss recorded in exactly one place.  A caller
    that touches the pool directly (the buffer-size ablation) is charged
    to its ``stats``; workers reach the pool through :class:`WorkerScope`
    views (usually via :class:`~repro.concurrency.ContextPool`), whose
    touches charge the worker's own record instead, so the misses equal
    the sum of the records that were charged.
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
        return self._touch(page_id, category, self.stats)

    def touch_many(self, page_ids: Iterable[Hashable], category: str = "page") -> int:
        """Read each of ``page_ids`` in order under one hold of the lock.

        Every page gets :meth:`touch`'s moves, fault check and charge;
        returns the number of reads charged.
        """
        return self._read_run(page_ids, category, self.stats)

    def touch_write(self, page_id: Hashable, category: str = "page") -> bool:
        """Mark ``page_id`` dirty; returns True when the write is charged."""
        return self._touch_write(page_id, category, self.stats)

    def _touch(self, page_id: Hashable, category: str, stats: AccessStats) -> bool:
        """:meth:`touch`, charging a miss to ``stats``."""
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
            stats.read(1, category)
            self._admit(page_id, False)
            return True

    def _read_run(self, page_ids, category: str, stats: AccessStats) -> int:
        """:meth:`touch_many`, charging the run's reads to ``stats``.

        ``hits`` and the record are folded once, when the run ends —
        also when a fault ends it early, so the pages charged before
        the fault stay charged.
        """
        lir, hir, stack = self._lir, self._hir, self._stack
        injector = self.injector
        hits = charged = 0
        with self._lock:
            try:
                for page_id in page_ids:
                    if page_id in lir:
                        stack.move_to_end(page_id)
                        if page_id == self._bottom:
                            self._prune()
                        hits += 1
                    elif page_id in hir:
                        self._hit(page_id)
                        hits += 1
                    else:
                        if injector is not None:
                            injector.on_read(page_id, category)
                        charged += 1
                        self._admit(page_id, False)
            finally:
                self.hits += hits
                if charged:
                    stats.read(charged, category)
        return charged

    def _touch_write(self, page_id: Hashable, category: str, stats: AccessStats) -> bool:
        """:meth:`touch_write`, charging the write to ``stats``."""
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
            stats.write(1, category)
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

    Residency and replacement are decided by the shared pool; every
    charge lands in the worker's own ``stats`` and nowhere else — a
    :meth:`touch_many` run's reads once, also when a fault ends the run
    — so operation spans measured on a single worker stay accurate even
    while other workers charge the pool concurrently.  The record is
    charged under the pool's lock, so it needs no lock of its own.
    """

    def __init__(self, pool: SharedBufferPool, stats: AccessStats) -> None:
        self.pool = pool
        self.stats = stats

    @property
    def capacity(self) -> int:
        return self.pool.capacity

    def touch(self, page_id: Hashable, category: str = "page") -> bool:
        return self.pool._touch(page_id, category, self.stats)

    def touch_many(self, page_ids: Iterable[Hashable], category: str = "page") -> int:
        return self.pool._read_run(page_ids, category, self.stats)

    def touch_write(self, page_id: Hashable, category: str = "page") -> bool:
        return self.pool._touch_write(page_id, category, self.stats)

    @property
    def distinct_pages(self) -> int:
        return self.pool.distinct_pages

    def evict_all(self) -> None:
        self.pool.evict_all()
