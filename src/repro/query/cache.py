"""The compiled-plan cache behind the daemon's ``POST /query`` front door.

Hot query texts should skip parse → validate → plan entirely: the cache
maps ``(normalized query text, ASR-manager epoch)`` to a
:class:`~repro.query.executor.CompiledSelect`.  Keying on the epoch
makes invalidation automatic — any maintenance batch, quarantine
transition, recovery rebuild, or ASR (de)registration bumps
``ASRManager.epoch``, so every cached plan from before the change
simply stops being found.  Stale epochs are evicted by the LRU bound;
no explicit flush is ever needed.

Normalization is purely lexical (whitespace collapsing outside string
literals), so it can never conflate two semantically different texts.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict

from repro.query.executor import CompiledSelect


#: One word of a query text: a maximal run of characters that are not
#: whitespace outside a double-quoted string literal.  A literal is kept
#: whole — a backslash escapes the next character, and an unterminated
#: literal runs to the end of the text.  No alternative can fail once
#: it has started, so the scan never backtracks.
_WORD = re.compile(r'(?:[^\s"]+|"(?:[^"\\]+|\\[\s\S])*(?:"|\\?\Z))+')


def normalize_query(text: str) -> str:
    """Collapse insignificant whitespace so trivial variants share a plan.

    Runs of whitespace outside double-quoted string literals become one
    space; leading/trailing whitespace is dropped.  String literals are
    preserved byte-for-byte (``\\"`` escapes honoured), so normalization
    never changes what a query means — at worst two equivalent texts
    normalize differently and plan twice.  One regex pass finds the
    words; one space joins them.
    """
    return " ".join(_WORD.findall(text))


class CompiledPlanCache:
    """A bounded, thread-safe LRU of compiled select statements.

    Keys are ``(normalized text, epoch)`` pairs; values are
    :class:`CompiledSelect` objects ready for
    :meth:`~repro.query.executor.SelectExecutor.run_compiled`.  Hits,
    misses, and evictions are published through the attached
    :class:`~repro.telemetry.registry.MetricsRegistry` as
    ``query.cache.hits`` / ``query.cache.misses`` /
    ``query.cache.evictions``, plus a ``query.cache.size`` gauge.
    """

    def __init__(self, capacity: int = 128, registry=None) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.registry = registry
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, int], CompiledSelect] = OrderedDict()
        if registry is not None:
            registry.gauge_fn("query.cache.size", lambda: float(len(self._entries)))

    def _count(self, name: str) -> None:
        if self.registry is not None:
            self.registry.inc(name)

    def get(self, text: str, epoch: int) -> CompiledSelect | None:
        """The cached plan for ``(text, epoch)``, refreshed as most recent."""
        key = (text, epoch)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is None:
                self._count("query.cache.misses")
                return None
            self._entries.move_to_end(key)
        self._count("query.cache.hits")
        return compiled

    def put(self, text: str, epoch: int, compiled: CompiledSelect) -> None:
        """Insert a freshly compiled plan, evicting the LRU tail if full."""
        if self.capacity == 0:
            return
        key = (text, epoch)
        evicted = 0
        with self._lock:
            self._entries[key] = compiled
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        for _ in range(evicted):
            self._count("query.cache.evictions")

    def __len__(self) -> int:
        return len(self._entries)

    def describe(self) -> dict:
        """JSON-able snapshot for ``/stats`` and the final report."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "epochs": sorted({epoch for _, epoch in self._entries}),
            }
