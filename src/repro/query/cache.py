"""The compiled-plan cache behind the daemon's ``POST /query`` front door.

A query's plan depends on its shape, not on its constants: the planner
prices a lowered ``Q_{i,j}`` per ``(path, i, j, kind)`` (Eq. 35), the
validator checks a literal only by its type, and lowering reads only
the operator and the path.  So the cache maps ``(query shape, ASR-manager
epoch)`` to a :class:`~repro.query.executor.CompiledSelect` template,
where the shape (:func:`query_shape`) is the normalized text with each
literal replaced by its kind (string, int or float); a hit binds the
request's literal values into the template
(:meth:`~repro.query.executor.CompiledSelect.bind`) and never parses,
validates or plans.  ``= 5`` and ``= 7`` share a plan, ``= 5.0`` and
``= "5"`` are shapes of their own.  When ranges are priced by
selectivity (ROADMAP, model item (f)), a range shape must carry its
selectivity bucket in the key.

Keying on the epoch makes invalidation automatic — any quarantine
transition, recovery, re-materialization, or ASR (de)registration bumps
``ASRManager.epoch``, so every cached plan from before the change
simply stops being found.  Maintenance does not bump it: a plan holds
ASRs and prices, never rows, so a cached plan stays right across
updates and its run reads the maintained trees.  Stale epochs are
evicted by the LRU bound; no explicit flush is ever needed.

Normalization is purely lexical (whitespace collapsing outside string
literals), so it can never conflate two semantically different texts;
nor can the shape, which abstracts only what it can prove is a literal
token of the parser (:data:`_LITERALS`).
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from collections.abc import Hashable

from repro.query.executor import CompiledSelect
from repro.query.parser import NUMBER_PATTERN, STRING_PATTERN


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


#: The literals a shape abstracts, in the parser's own token syntax: a
#: string wherever one starts, a number only where no identifier or
#: number character, ``-`` or ``.`` touches it on the left.  In a text
#: that tokenizes, every match is then a whole literal token — a digit
#: inside ``T0`` or ``x5``, the ``-3`` of ``5and-3`` and the ``3`` of
#: ``1.5.3`` stay in the shape — so two texts of one shape tokenize
#: alike but for the values of those literals.  The leading lookahead
#: only lets the engine skip to a quote, digit or ``-``.
_LITERALS = re.compile(
    rf'(?=["\d-])(?:({STRING_PATTERN})|(?<![\w.-])({NUMBER_PATTERN}))'
)


def query_shape(text: str) -> tuple[tuple, list[str]]:
    """``text`` with its literals abstracted, and those literals' tokens.

    Returns ``(shape, tokens)``: ``shape`` is hashable and equal for two
    texts exactly when they differ only in the values of abstracted
    literals of the same kind (``str`` / ``int`` / ``float``, told apart
    as the parser does); ``tokens`` are those literals as written, in
    token order (:func:`~repro.query.parser.literal_value` reads them).
    One C-level split; the loop runs once per literal.
    """
    parts = _LITERALS.split(text)
    tokens = []
    for at in range(1, len(parts), 3):
        token = parts[at] or parts[at + 1]
        tokens.append(token)
        parts[at] = str if token[0] == '"' else float if "." in token else int
        parts[at + 1] = None
    return tuple(parts), tokens


class CompiledPlanCache:
    """A bounded, thread-safe LRU of compiled select statements.

    Keys are ``(shape, epoch)`` pairs — the query service's shape is a
    :func:`query_shape`, though any hashable will do — and values are
    :class:`CompiledSelect` templates (bound per request, then run by
    :meth:`~repro.query.executor.SelectExecutor.run_compiled`).  Hits,
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
        self._entries: OrderedDict[tuple[Hashable, int], CompiledSelect] = (
            OrderedDict()
        )
        if registry is not None:
            registry.gauge_fn("query.cache.size", lambda: float(len(self._entries)))

    def _count(self, name: str) -> None:
        if self.registry is not None:
            self.registry.inc(name)

    def get(self, shape: Hashable, epoch: int) -> CompiledSelect | None:
        """The cached plan for ``(shape, epoch)``, refreshed as most recent."""
        key = (shape, epoch)
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is None:
                self._count("query.cache.misses")
                return None
            self._entries.move_to_end(key)
        self._count("query.cache.hits")
        return compiled

    def put(self, shape: Hashable, epoch: int, compiled: CompiledSelect) -> None:
        """Insert a freshly compiled plan, evicting the LRU tail if full."""
        if self.capacity == 0:
            return
        key = (shape, epoch)
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
