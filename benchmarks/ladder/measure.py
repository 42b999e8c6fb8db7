"""Clocks, percentiles, the span recorder and process memory.

Nothing here knows the program: it is the arithmetic the workloads and
the per-layer sheet share.
"""

from __future__ import annotations

import json
import math
import resource
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from statistics import median


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_summary(seconds: list[float]) -> dict:
    """Sample count, p50 and p95 in milliseconds.

    p95 is the highest percentile with at least ten samples beyond it
    once a window holds 200 operations of a kind.
    """
    ordered = sorted(seconds)
    return {
        "count": len(ordered),
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
    }


def typical_ms(by_name: dict[str, list[float]]) -> float:
    """The median latency of each operation kind, weighted by its share.

    The plain median of a mix is useless when the kinds' latencies are
    far apart: FIG14's queries are 50% at ~0.2 ms and 25% each at ~2 and
    ~5 ms, so the overall median sits on the edge between two kinds and
    jumps from one to the other with the seed.
    """
    total = sum(len(values) for values in by_name.values())
    return sum(len(values) / total * median(values) for values in by_name.values()) * 1e3


def fastest_repeats(samples: list[tuple]) -> list[tuple]:
    """One sample per block position: the fastest of its repetitions.

    A window replays its block many times, so each bound operation is
    timed many times.  On a shared box a neighbour makes some of those
    repetitions slower and none faster: the fastest is what the program
    costs, and it repeats from run to run where the median of a window
    moves with how busy the box was.  (A position's lower quartile is
    steadier on a quiet box, where the minimum chases the one repetition
    in twelve that found a cache warm, but when a neighbour sat on the
    box for most of a window it spread twice as wide as the minimum.)
    ``samples`` are ``(name, kind, seconds, position)``.
    """
    best: dict[int, tuple] = {}
    for sample in samples:
        held = best.get(sample[3])
        if held is None or sample[2] < held[2]:
            best[sample[3]] = sample
    return [best[position] for position in sorted(best)]


def half_means_ms(seconds: list[float]) -> tuple[float, float]:
    """Mean latency of the first and the second half, so drift is visible."""
    if len(seconds) < 2:
        return (0.0, 0.0)
    middle = len(seconds) // 2
    first, second = seconds[:middle], seconds[middle:]
    return (sum(first) / len(first) * 1e3, sum(second) / len(second) * 1e3)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_each(fn, items, repeat: int = 1) -> float:
    """Mean seconds of ``fn(item)`` over ``items``, ``repeat`` passes.

    The clock brackets each pass, not each call, so sub-microsecond
    calls are not drowned in timer reads; the best pass is reported to
    shed scheduler noise, as ``timeit`` does.
    """
    best = math.inf
    for _ in range(repeat):
        started = time.perf_counter()
        for item in items:
            fn(item)
        best = min(best, time.perf_counter() - started)
    return best / max(1, len(items))


_current_span: ContextVar[int | None] = ContextVar("ladder_span", default=None)


class SpanRecorder:
    """The harness's own tracer: name, start, end, parent, op id.

    Spans wrap the calls the harness makes into a layer and the proxies
    it passes through the program's seams.  They live in memory and are
    written once, by :meth:`write`.  The open span is tracked per thread
    and per asyncio task (a ``ContextVar``); a hop onto an executor
    thread passes ``parent`` explicitly.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent, op]`` per span, in start order.
        self.records: list[list] = []
        self._lock = threading.Lock()

    def begin(self, name: str, op=None, parent: int | None = None) -> int:
        record = [name, 0.0, 0.0, parent, op]
        with self._lock:
            self.records.append(record)
            span_id = len(self.records) - 1
        record[1] = time.perf_counter()
        return span_id

    def end(self, span_id: int) -> None:
        self.records[span_id][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str, op=None, parent: int | None = None):
        if parent is None:
            parent = _current_span.get()
        span_id = self.begin(name, op, parent)
        token = _current_span.set(span_id)
        try:
            yield span_id
        finally:
            _current_span.reset(token)
            self.end(span_id)

    def durations(self, name: str) -> list[tuple]:
        """``(op, seconds)`` of every span called ``name``."""
        return [
            (op, end - start)
            for span, start, end, _parent, op in self.records
            if span == name
        ]

    def rollup(self) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds.

        Self time is a span minus the part its child spans cover.
        """
        child_time = [0.0] * len(self.records)
        for _name, start, end, parent, _op in self.records:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.records):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += max(0.0, end - start - child_time[index])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.records},
                handle,
            )
