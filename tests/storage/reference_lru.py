"""The LRU shared pool, kept as the reference for tests.

This is ``SharedBufferPool`` as it stood before its replacement policy
became LIRS: one dict of page -> dirty flag whose insertion order is the
recency order, the oldest page evicted on overflow.  The product no
longer contains it; the tests compare the LIRS pool against it — equal
counts whenever the distinct pages fit, fewer misses on a loop longer
than the pool.
"""

from typing import Hashable

from repro.storage.stats import AccessStats


class ReferenceLRUPool:
    """A single-threaded LRU pool with ``SharedBufferPool``'s surface."""

    def __init__(self, stats: AccessStats, capacity: int, injector=None) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least one page")
        self.stats = stats
        self.capacity = capacity
        self.injector = injector
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        # page id -> dirty flag; insertion order is recency order.
        self._lru: dict[Hashable, bool] = {}

    def _admit(self, page_id: Hashable, dirty: bool) -> None:
        self.misses += 1
        self._lru[page_id] = dirty
        if len(self._lru) > self.capacity:
            del self._lru[next(iter(self._lru))]
            self.evictions += 1

    def touch(self, page_id: Hashable, category: str = "page") -> bool:
        lru = self._lru
        if page_id in lru:
            lru[page_id] = lru.pop(page_id)  # refresh recency
            self.hits += 1
            return False
        if self.injector is not None:
            self.injector.on_read(page_id, category)
        self.stats.read(1, category)
        self._admit(page_id, False)
        return True

    def touch_write(self, page_id: Hashable, category: str = "page") -> bool:
        lru = self._lru
        if lru.get(page_id):
            lru[page_id] = lru.pop(page_id)  # already dirty: refresh recency
            self.hits += 1
            return False
        if self.injector is not None:
            self.injector.on_write(page_id, category)
        self.stats.write(1, category)
        lru.pop(page_id, None)  # a clean resident page re-enters as newest
        self._admit(page_id, True)
        return True

    @property
    def distinct_pages(self) -> int:
        return len(self._lru)


def replay(pool, trace) -> None:
    """Apply ``trace`` — ``(page_id, is_write)`` pairs — to ``pool``."""
    for page_id, is_write in trace:
        if is_write:
            pool.touch_write(page_id)
        else:
            pool.touch(page_id)
