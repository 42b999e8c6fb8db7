"""A lock-safe metrics registry: counters, gauges, log-scale histograms.

The execution layers built so far *measure* everything — spans carry
page-access deltas, the shared buffer pool counts hits and misses, the
ASR manager counts recovery attempts — but each measurement lives in its
own object and dies with it.  :class:`MetricsRegistry` is the one sink
they all publish into, so a serve run (or a trace) can be summarized,
exported, and compared across runs:

* **counters** — monotonically increasing event counts (operations
  executed, maintenance rows applied, quarantine transitions);
* **gauges** — last-written point-in-time values, or values computed
  when read (*callable* gauges: pool occupancy, residency; a source's:
  the drift ratios) so the hot path never pays for them;
* **histograms** — value distributions over **fixed log-scale buckets**
  (base 2): bucket ``i`` covers ``(2^(i-1), 2^i]``, stored sparsely.
  Observing costs one ``frexp`` and a dict bump — no wall-clock reads,
  no allocation beyond the first hit of a bucket.

All families support labels (keyword arguments), and every mutating
entry point takes one internal lock, so concurrent workers of a
:class:`~repro.concurrency.ContextPool` can publish without tearing a
histogram mid-update.

The hottest series are not pushed at all.  A query publishes only to
its worker's :class:`~repro.context.ExecutionContext`, whose
thread-confined :class:`~repro.context.Tally` is the stored relation
(``ops{op}``, ``span.pages{op}``, labelled counts such as
``asr.lookups``); the registry's series are inherited from it when they
are read.  A context :meth:`MetricsRegistry.attach`-es its tally when it
is created and :meth:`MetricsRegistry.fold`-s it in once when it closes;
every read (:meth:`MetricsRegistry.counter_value`,
:meth:`MetricsRegistry.histogram`, :meth:`MetricsRegistry.snapshot`)
adds the live tallies to what was folded and pushed, under the lock, and
then the *sources* (:meth:`MetricsRegistry.source`: the drift monitor's
per-key counts and ratio gauges), outside it.  At a quiescent point a
read equals what pushing every publication would have built; between
them every counter only grows.

Exports: :meth:`MetricsRegistry.snapshot` is the JSON-able form embedded
in the daemon's drain report and read back by ``repro stats``;
:meth:`MetricsRegistry.render_prometheus` is the text exposition format
scrape endpoints speak.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "MetricsRegistry",
    "HistogramState",
    "estimate_quantile",
    "render_prometheus",
    "QUANTILE_POINTS",
]

#: Log-scale histogram bucket bounds are powers of this base.
BUCKET_BASE = 2.0

#: Bucket indices are clamped to this range: bounds span 2^-20 (~1e-6,
#: fine enough for microsecond latencies in ms) … 2^40 (~1e12 pages).
MIN_BUCKET_INDEX = -20
MAX_BUCKET_INDEX = 40

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric name (dots and dashes become ``_``)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value) -> str:
    """A label value escaped per the Prometheus text exposition spec.

    Inside a quoted label value, backslash, double-quote, and line feed
    must appear as ``\\\\``, ``\\"``, and ``\\n`` — otherwise a value
    like ``dec("a")`` terminates the quote early and the whole sample
    line becomes unparseable.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def bucket_index(value: float) -> int | None:
    """The fixed log-scale bucket holding ``value``.

    Bucket ``i`` has upper bound ``BUCKET_BASE ** i``; values at or
    below zero fall into the dedicated zero bucket (``None``).  Exact:
    ``frexp`` splits ``value`` into ``m * 2**e`` with ``0.5 <= m < 1``,
    so ``value`` lies in ``(2^(e-1), 2^e)`` unless ``m`` is exactly 0.5,
    when it *is* the bound ``2^(e-1)`` — no rounded logarithm decides.
    """
    if value <= 0.0:
        return None
    if value == math.inf:
        return MAX_BUCKET_INDEX
    mantissa, index = math.frexp(value)
    if mantissa == 0.5:
        index -= 1
    if index < MIN_BUCKET_INDEX:
        return MIN_BUCKET_INDEX
    return MAX_BUCKET_INDEX if index > MAX_BUCKET_INDEX else index


@dataclass
class HistogramState:
    """One labeled histogram: sparse log-scale buckets plus summaries."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    #: ``bucket index -> observations`` (``None`` is the <= 0 bucket).
    buckets: dict[int | None, int] = field(default_factory=dict)
    #: Newest exemplar: ``{"trace_id", "value", "le"}`` (OpenMetrics
    #: style — one per histogram, attached to its bucket on exposition).
    exemplar: dict | None = None

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation (by the registry under its lock, or by
        the one thread owning a context's tally).

        The summaries are written before ``count`` and the bucket after
        it, so :meth:`copy` — buckets first, then ``count`` — never sees
        more bucketed observations than counted ones, nor a count its
        ``min`` / ``max`` do not cover.
        """
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if exemplar is not None:
            le = 0.0 if index is None else BUCKET_BASE**index
            self.exemplar = {"trace_id": exemplar, "value": value, "le": le}

    def copy(self) -> "HistogramState":
        """A copy, safe to take while the owner observes (see :meth:`observe`)."""
        buckets = self.buckets.copy()
        return HistogramState(
            self.count, self.total, self.min, self.max, buckets, self.exemplar
        )

    def merge(self, other: "HistogramState") -> None:
        """Add ``other``'s observations (its exemplar is not taken)."""
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        buckets = self.buckets
        for index, count in other.buckets.items():
            buckets[index] = buckets.get(index, 0) + count

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-able form; bucket bounds are materialized as ``le``."""
        buckets = []
        for index in sorted(
            self.buckets, key=lambda i: -math.inf if i is None else i
        ):
            le = 0.0 if index is None else BUCKET_BASE**index
            buckets.append({"le": le, "count": self.buckets[index]})
        result = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": buckets,
        }
        if self.exemplar is not None:
            result["exemplar"] = dict(self.exemplar)
        return result


#: The quantile points derived on exposition (p50 / p95 / p99).
QUANTILE_POINTS = (0.5, 0.95, 0.99)


def estimate_quantile(hist: dict, q: float) -> float:
    """Estimate the ``q``-quantile of a log-scale histogram.

    ``hist`` is the :meth:`HistogramState.as_dict` form (``count``,
    ``min``, ``max``, cumulative-able ``buckets``).  The target rank
    ``q * count`` is located in its bucket, then interpolated
    **geometrically** (log-linear — the natural assumption inside a
    log-scale bucket ``(le/BASE, le]``), and finally clamped to the
    recorded ``[min, max]`` — so a histogram whose observations all
    share one value reports that value exactly at every quantile.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be within [0, 1]")
    count = hist.get("count", 0)
    if not count:
        return 0.0
    lo_clamp = hist.get("min", 0.0)
    hi_clamp = hist.get("max", 0.0)
    target = q * count
    cumulative = 0.0
    for bucket in hist.get("buckets", ()):
        upper = bucket["le"]
        in_bucket = bucket["count"]
        if cumulative + in_bucket >= target and in_bucket:
            if upper <= 0.0:
                # The <= 0 bucket has no geometric span; clamp only.
                return min(max(0.0, lo_clamp), hi_clamp)
            fraction = (target - cumulative) / in_bucket
            lower = upper / BUCKET_BASE
            value = lower * (upper / lower) ** max(0.0, fraction)
            return min(max(value, lo_clamp), hi_clamp)
        cumulative += in_bucket
    return hi_clamp


def _merge_counters(counters: dict, pairs) -> None:
    """Add ``(series, value)`` pairs into ``name -> {key: value}``."""
    for (name, key), value in pairs:
        family = counters.setdefault(name, {})
        family[key] = family.get(key, 0) + value


def _merge_tally(counters: dict, histograms: dict, tally) -> None:
    """Add one tally's counters and histograms (copies) into the maps."""
    _merge_counters(counters, tally.counters())
    for (name, key), state in tally.histograms():
        family = histograms.setdefault(name, {})
        mine = family.get(key)
        if mine is None:
            family[key] = state
        else:
            mine.merge(state)


class MetricsRegistry:
    """The shared sink every layer publishes metrics into.

    One instance per serve run (or per long-lived server).  All methods
    are safe to call from any thread; callable gauges registered with
    :meth:`gauge_fn` are evaluated only inside :meth:`snapshot` /
    :meth:`render_prometheus`, keeping them off the hot path.

    A read is the pushed and folded series, plus the attached tallies
    (under the lock), plus the sources (outside it, so no path holds
    this lock and a source's own at once).  The registry holds a
    tally, never its context; a context never closed keeps its tally
    attached, so nothing it counted is lost.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[_LabelKey, float]] = {}
        self._gauges: dict[str, dict[_LabelKey, float]] = {}
        self._gauge_fns: dict[str, dict[_LabelKey, Callable[[], float]]] = {}
        self._histograms: dict[str, dict[_LabelKey, HistogramState]] = {}
        #: Tallies of live contexts (:meth:`attach` / :meth:`fold`).
        self._tallies: set = set()
        #: Callables returning ``(counters, gauges)``, each a list of
        #: ``(series, value)`` (:meth:`source`).
        self._sources: list[Callable[[], tuple[list, list]]] = []

    @staticmethod
    def series(name: str, **labels: str) -> tuple[str, _LabelKey]:
        """The ``(name, label key)`` of one series, built once by a hot
        publisher (the context's :meth:`~repro.context.ExecutionContext.count_series`
        takes it as is)."""
        return name, _label_key(labels)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: str) -> None:
        """Add ``value`` to the counter ``name`` (per label set)."""
        self._add(name, _label_key(labels), value)

    def add(self, series: tuple[str, _LabelKey], value: float = 1) -> None:
        """:meth:`inc` of a :meth:`series` built earlier."""
        self._add(series[0], series[1], value)

    def _add(self, name: str, key: _LabelKey, value: float) -> None:
        with self._lock:
            family = self._counters.setdefault(name, {})
            family[key] = family.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set the gauge ``name`` to ``value`` (per label set)."""
        key = _label_key(labels)
        with self._lock:
            self._gauges.setdefault(name, {})[key] = value

    def gauge_fn(self, name: str, fn: Callable[[], float], **labels: str) -> None:
        """Register a callable gauge, read lazily at snapshot time."""
        key = _label_key(labels)
        with self._lock:
            self._gauge_fns.setdefault(name, {})[key] = fn

    def observe(
        self, name: str, value: float, exemplar: str | None = None, **labels: str
    ) -> None:
        """Record ``value`` into the histogram ``name`` (per label set).

        ``exemplar`` (keyword-only in spirit — reserved before the label
        kwargs) attaches a trace ID exemplar to the observation, exposed
        on the matching ``_bucket`` line in OpenMetrics style.
        """
        self._observe(name, _label_key(labels), value, exemplar)

    def _observe(
        self, name: str, key: _LabelKey, value: float, exemplar: str | None
    ) -> None:
        with self._lock:
            family = self._histograms.setdefault(name, {})
            state = family.get(key)
            if state is None:
                state = family[key] = HistogramState()
            state.observe(value, exemplar=exemplar)

    # ------------------------------------------------------------------
    # tallies and sources
    # ------------------------------------------------------------------

    def attach(self, tally) -> None:
        """Read ``tally`` (a :class:`~repro.context.Tally`) into every read
        until :meth:`fold`."""
        with self._lock:
            self._tallies.add(tally)

    def fold(self, tally) -> None:
        """Add an attached ``tally`` to the stored series once and let go of it."""
        with self._lock:
            if tally in self._tallies:
                self._tallies.remove(tally)
                _merge_tally(self._counters, self._histograms, tally)

    def source(self, fn: Callable[[], tuple[list, list]]) -> None:
        """Register ``fn() -> (counters, gauges)``, each ``[(series, value),
        ...]``: series derived from another object's state on every read,
        outside the registry lock.  A source's counters add to the stored
        ones; its gauges are what it says they are now."""
        with self._lock:
            self._sources.append(fn)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _read(self) -> tuple[dict, dict, dict]:
        """``(counters, gauges, histograms)`` as a read sees them, as copies.

        Pushed and folded series plus every attached tally, under the
        lock; then the sources, outside it.  Callable gauges are left to
        :meth:`snapshot`.
        """
        with self._lock:
            counters = {name: dict(family) for name, family in self._counters.items()}
            gauges = {name: dict(family) for name, family in self._gauges.items()}
            histograms = {
                name: {key: state.copy() for key, state in family.items()}
                for name, family in self._histograms.items()
            }
            for tally in self._tallies:
                _merge_tally(counters, histograms, tally)
            sources = list(self._sources)
        for fn in sources:
            source_counters, source_gauges = fn()
            _merge_counters(counters, source_counters)
            for (name, key), value in source_gauges:
                gauges.setdefault(name, {})[key] = value
        return counters, gauges, histograms

    def counter_value(self, name: str, **labels: str) -> float:
        """The current value of one counter (0 when never incremented)."""
        return self._read()[0].get(name, {}).get(_label_key(labels), 0)

    def histogram(self, name: str, **labels: str) -> HistogramState | None:
        """A copy of the histogram state of one label set, if observed."""
        return self._read()[2].get(name, {}).get(_label_key(labels))

    def snapshot(self) -> dict:
        """The whole registry as a JSON-able dict.

        Callable gauges are evaluated here, outside the registry lock,
        so a gauge reading a lock-protected pool cannot deadlock a
        concurrent publisher.
        """
        counters, gauges, histograms = self._read()
        with self._lock:
            gauge_fns = [
                (name, key, fn)
                for name, family in self._gauge_fns.items()
                for key, fn in family.items()
            ]
        for name, key, fn in gauge_fns:
            gauges.setdefault(name, {})[key] = float(fn())
        return {
            "counters": {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(family.items())
                ]
                for name, family in sorted(counters.items())
            },
            "gauges": {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(family.items())
                ]
                for name, family in sorted(gauges.items())
            },
            "histograms": {
                name: [
                    {"labels": dict(key), **state.as_dict()}
                    for key, state in sorted(family.items())
                ]
                for name, family in sorted(histograms.items())
            },
        }

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------

    def render_prometheus(self, prefix: str = "repro") -> str:
        """The live registry in the Prometheus text exposition format.

        Exactly :func:`render_prometheus` of :meth:`snapshot`.
        """
        return render_prometheus(self.snapshot(), prefix)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges) + len(self._gauge_fns)}, "
                f"histograms={len(self._histograms)})"
            )


def render_prometheus(snapshot: dict, prefix: str = "repro") -> str:
    """A :meth:`MetricsRegistry.snapshot` in the Prometheus text format.

    Counter families render as ``<prefix>_<name>_total``, gauges as
    ``<prefix>_<name>``, histograms as the conventional
    ``_bucket``/``_sum``/``_count`` triplet with cumulative ``le``
    bounds (the fixed powers of :data:`BUCKET_BASE`).  The live
    ``GET /metrics`` scrape and ``repro stats --prometheus`` over a
    saved drain report both render through here.
    """
    lines: list[str] = []

    def fmt_labels(labels: dict, extra: dict | None = None) -> str:
        merged = dict(labels)
        if extra:
            merged.update(extra)
        if not merged:
            return ""
        inner = ",".join(
            f'{_sanitize(k)}="{_escape_label_value(v)}"'
            for k, v in sorted(merged.items())
        )
        return "{" + inner + "}"

    for name, entries in snapshot.get("counters", {}).items():
        metric = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        for entry in entries:
            lines.append(f"{metric}{fmt_labels(entry['labels'])} {entry['value']}")
    for name, entries in snapshot.get("gauges", {}).items():
        metric = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} gauge")
        for entry in entries:
            lines.append(f"{metric}{fmt_labels(entry['labels'])} {entry['value']}")
    for name, entries in snapshot.get("histograms", {}).items():
        metric = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} histogram")
        for entry in entries:
            exemplar = entry.get("exemplar")
            cumulative = 0
            for bucket in entry["buckets"]:
                cumulative += bucket["count"]
                line = (
                    f"{metric}_bucket"
                    f"{fmt_labels(entry['labels'], {'le': bucket['le']})}"
                    f" {cumulative}"
                )
                if exemplar is not None and exemplar.get("le") == bucket["le"]:
                    # OpenMetrics exemplar: `# {trace_id="…"} value`.
                    line += (
                        " # {trace_id="
                        f'"{_escape_label_value(exemplar["trace_id"])}"'
                        f"}} {exemplar['value']}"
                    )
                lines.append(line)
            lines.append(
                f"{metric}_bucket{fmt_labels(entry['labels'], {'le': '+Inf'})}"
                f" {entry['count']}"
            )
            lines.append(f"{metric}_sum{fmt_labels(entry['labels'])} {entry['sum']}")
            lines.append(
                f"{metric}_count{fmt_labels(entry['labels'])} {entry['count']}"
            )
        lines.append(f"# TYPE {metric}_quantile gauge")
        for entry in entries:
            for q in QUANTILE_POINTS:
                lines.append(
                    f"{metric}_quantile"
                    f"{fmt_labels(entry['labels'], {'quantile': q})}"
                    f" {estimate_quantile(entry, q)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
