"""A lock-safe metrics registry: counters, gauges, log-scale histograms.

The execution layers built so far *measure* everything — spans carry
page-access deltas, the shared buffer pool counts hits and misses, the
ASR manager counts recovery attempts — but each measurement lives in its
own object and dies with it.  :class:`MetricsRegistry` is the one sink
they all publish into, so a serve run (or a trace) can be summarized,
exported, and compared across runs:

* **counters** — monotonically increasing event counts (operations
  executed, maintenance rows applied, quarantine transitions);
* **gauges** — last-written point-in-time values, or *callable* gauges
  evaluated lazily at snapshot time (pool occupancy, residency) so the
  hot path never pays for them;
* **histograms** — value distributions over **fixed log-scale buckets**
  (base 2): bucket ``i`` covers ``(2^(i-1), 2^i]``, stored sparsely.
  Observing costs one ``frexp`` and a dict bump — no wall-clock reads,
  no allocation beyond the first hit of a bucket.

All families support labels (keyword arguments), and every mutating
entry point takes one internal lock, so concurrent workers of a
:class:`~repro.concurrency.ContextPool` can publish without tearing a
histogram mid-update.  A hot call site resolves its label set once —
:meth:`MetricsRegistry.bind_counter` / :meth:`MetricsRegistry.bind_histogram`
return a :class:`BoundCounter` / :class:`BoundHistogram` — and then
publishes without building the label key again; the published name,
labels and values are those of the unbound call.

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
    "BoundCounter",
    "BoundHistogram",
    "MetricsRegistry",
    "HistogramState",
    "estimate_quantile",
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
        """Record one observation (caller holds the registry lock)."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if exemplar is not None:
            le = 0.0 if index is None else BUCKET_BASE**index
            self.exemplar = {"trace_id": exemplar, "value": value, "le": le}

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


class BoundCounter:
    """One counter of one label set (:meth:`MetricsRegistry.bind_counter`).

    ``inc`` takes the registry lock like :meth:`MetricsRegistry.inc` but
    skips building the label key; nothing is published until it is
    called, so binding alone leaves the snapshot unchanged.
    """

    __slots__ = ("_registry", "_name", "_key")

    def __init__(self, registry: "MetricsRegistry", name: str, key: _LabelKey) -> None:
        self._registry, self._name, self._key = registry, name, key

    def inc(self, value: float = 1) -> None:
        self._registry._add(self._name, self._key, value)


class BoundHistogram:
    """One histogram of one label set (:meth:`MetricsRegistry.bind_histogram`)."""

    __slots__ = ("_registry", "_name", "_key")

    def __init__(self, registry: "MetricsRegistry", name: str, key: _LabelKey) -> None:
        self._registry, self._name, self._key = registry, name, key

    def observe(self, value: float, exemplar: str | None = None) -> None:
        self._registry._observe(self._name, self._key, value, exemplar)


class MetricsRegistry:
    """The shared sink every layer publishes metrics into.

    One instance per serve run (or per long-lived server).  All methods
    are safe to call from any thread; callable gauges registered with
    :meth:`gauge_fn` are evaluated only inside :meth:`snapshot` /
    :meth:`render_prometheus`, keeping them off the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, dict[_LabelKey, float]] = {}
        self._gauges: dict[str, dict[_LabelKey, float]] = {}
        self._gauge_fns: dict[str, dict[_LabelKey, Callable[[], float]]] = {}
        self._histograms: dict[str, dict[_LabelKey, HistogramState]] = {}

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: str) -> None:
        """Add ``value`` to the counter ``name`` (per label set)."""
        self._add(name, _label_key(labels), value)

    def _add(self, name: str, key: _LabelKey, value: float) -> None:
        with self._lock:
            family = self._counters.setdefault(name, {})
            family[key] = family.get(key, 0) + value

    def bind_counter(self, name: str, **labels: str) -> BoundCounter:
        """The counter ``name`` of one label set, for repeated ``inc``."""
        return BoundCounter(self, name, _label_key(labels))

    def bind_histogram(self, name: str, **labels: str) -> BoundHistogram:
        """The histogram ``name`` of one label set, for repeated ``observe``."""
        return BoundHistogram(self, name, _label_key(labels))

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
    # reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> float:
        """The current value of one counter (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0)

    def gauge_value(self, name: str, **labels: str) -> float | None:
        """The current value of one gauge (callable gauges evaluated)."""
        key = _label_key(labels)
        with self._lock:
            fn = self._gauge_fns.get(name, {}).get(key)
            if fn is None:
                return self._gauges.get(name, {}).get(key)
        return float(fn())

    def histogram(self, name: str, **labels: str) -> HistogramState | None:
        """The histogram state of one label set, if observed."""
        with self._lock:
            return self._histograms.get(name, {}).get(_label_key(labels))

    def snapshot(self) -> dict:
        """The whole registry as a JSON-able dict.

        Callable gauges are evaluated here (outside the registry lock,
        so a gauge reading a lock-protected pool cannot deadlock a
        concurrent publisher).
        """
        with self._lock:
            counters = {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(family.items())
                ]
                for name, family in sorted(self._counters.items())
            }
            gauges = {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(family.items())
                ]
                for name, family in sorted(self._gauges.items())
            }
            histograms = {
                name: [
                    {"labels": dict(key), **state.as_dict()}
                    for key, state in sorted(family.items())
                ]
                for name, family in sorted(self._histograms.items())
            }
            gauge_fns = [
                (name, key, fn)
                for name, family in sorted(self._gauge_fns.items())
                for key, fn in sorted(family.items())
            ]
        for name, key, fn in gauge_fns:
            gauges.setdefault(name, []).append(
                {"labels": dict(key), "value": float(fn())}
            )
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    @classmethod
    def from_snapshot(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output.

        Callable gauges come back as plain gauges (their last snapshot
        value); histograms keep their buckets, so the Prometheus
        exposition of a restored registry matches the original.
        """
        registry = cls()
        for name, entries in data.get("counters", {}).items():
            for entry in entries:
                registry.inc(name, entry["value"], **entry.get("labels", {}))
        for name, entries in data.get("gauges", {}).items():
            for entry in entries:
                registry.set_gauge(name, entry["value"], **entry.get("labels", {}))
        for name, entries in data.get("histograms", {}).items():
            family = registry._histograms.setdefault(name, {})
            for entry in entries:
                state = HistogramState(
                    count=entry["count"],
                    total=entry["sum"],
                    min=entry["min"] if entry["count"] else math.inf,
                    max=entry["max"] if entry["count"] else -math.inf,
                )
                for bucket in entry.get("buckets", ()):
                    le = bucket["le"]
                    index = None if le <= 0 else round(math.log(le, BUCKET_BASE))
                    state.buckets[index] = bucket["count"]
                if entry.get("exemplar") is not None:
                    state.exemplar = dict(entry["exemplar"])
                family[_label_key(entry.get("labels", {}))] = state
        return registry

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------

    def render_prometheus(self, prefix: str = "repro") -> str:
        """The registry in the Prometheus text exposition format.

        Counter families render as ``<prefix>_<name>_total``, gauges as
        ``<prefix>_<name>``, histograms as the conventional
        ``_bucket``/``_sum``/``_count`` triplet with cumulative ``le``
        bounds (the fixed powers of :data:`BUCKET_BASE`).
        """
        snap = self.snapshot()
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

        for name, entries in snap["counters"].items():
            metric = f"{prefix}_{_sanitize(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            for entry in entries:
                lines.append(f"{metric}{fmt_labels(entry['labels'])} {entry['value']}")
        for name, entries in snap["gauges"].items():
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            for entry in entries:
                lines.append(f"{metric}{fmt_labels(entry['labels'])} {entry['value']}")
        for name, entries in snap["histograms"].items():
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

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges) + len(self._gauge_fns)}, "
                f"histograms={len(self._histograms)})"
            )
