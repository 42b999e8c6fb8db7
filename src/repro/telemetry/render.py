"""Human-readable rendering of metrics snapshots and drift reports.

The backend of ``repro stats``: takes the JSON-able structures the
daemon's drain report embeds in ``BENCH_serve_daemon.json`` (a
:meth:`~repro.telemetry.registry.MetricsRegistry.snapshot` and a
:meth:`~repro.telemetry.drift.DriftMonitor.report`) and formats them as
aligned text tables.  Pure functions over plain dicts, so the CLI can
render a snapshot from any run without reconstructing live objects.
"""

from __future__ import annotations

from repro.telemetry.registry import estimate_quantile

__all__ = ["format_metrics", "format_drift", "format_stats"]


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _table(headers: list[str], rows: list[list[str]], title: str) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title]
    lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  " + "  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_metrics(snapshot: dict) -> str:
    """Counters, gauges, and histogram summaries as text tables."""
    sections: list[str] = []
    counters = [
        [name, _fmt_labels(entry.get("labels", {})), _fmt_value(entry["value"])]
        for name, entries in snapshot.get("counters", {}).items()
        for entry in entries
    ]
    if counters:
        sections.append(_table(["counter", "labels", "value"], counters, "counters:"))
    gauges = [
        [name, _fmt_labels(entry.get("labels", {})), _fmt_value(entry["value"])]
        for name, entries in snapshot.get("gauges", {}).items()
        for entry in entries
    ]
    if gauges:
        sections.append(_table(["gauge", "labels", "value"], gauges, "gauges:"))
    histograms = [
        [
            name,
            _fmt_labels(entry.get("labels", {})),
            _fmt_value(entry["count"]),
            _fmt_value(round(entry.get("mean", 0.0), 3)),
            _fmt_value(round(estimate_quantile(entry, 0.5), 3)),
            _fmt_value(round(estimate_quantile(entry, 0.95), 3)),
            _fmt_value(round(estimate_quantile(entry, 0.99), 3)),
            _fmt_value(entry["min"]),
            _fmt_value(entry["max"]),
        ]
        for name, entries in snapshot.get("histograms", {}).items()
        for entry in entries
    ]
    if histograms:
        sections.append(
            _table(
                [
                    "histogram",
                    "labels",
                    "count",
                    "mean",
                    "p50",
                    "p95",
                    "p99",
                    "min",
                    "max",
                ],
                histograms,
                "histograms (log-scale buckets, interpolated quantiles):",
            )
        )
    return "\n\n".join(sections) if sections else "no metrics recorded"


def format_drift(report: dict) -> str:
    """The drift report as a table plus the overall geomean line."""
    rows = [
        [
            entry["extension"],
            entry["decomposition"],
            entry["op"],
            _fmt_value(entry["count"]),
            _fmt_value(entry["predicted_pages"]),
            _fmt_value(entry["observed_pages"]),
            _fmt_value(entry["ratio"]),
            _fmt_value(entry["geo_mean_ratio"]),
        ]
        for entry in report.get("by_key", ())
    ]
    if not rows:
        return "no drift observations recorded"
    table = _table(
        [
            "extension",
            "decomposition",
            "op",
            "n",
            "predicted",
            "observed",
            "ratio",
            "geomean",
        ],
        rows,
        "cost-model drift (observed / predicted page accesses):",
    )
    overall = report.get("overall", {})
    summary = (
        f"overall geometric-mean drift ratio: "
        f"{_fmt_value(overall.get('geo_mean_ratio'))} over "
        f"{_fmt_value(overall.get('count'))} operation(s)"
        f" ({_fmt_value(overall.get('skipped'))} skipped)"
    )
    return table + "\n" + summary


def format_stats(metrics: dict | None, drift: dict | None, accounting: dict | None) -> str:
    """The full ``repro stats`` page: accounting, drift, then metrics."""
    sections: list[str] = []
    if accounting:
        ok = "consistent" if accounting.get("ok") else "INCONSISTENT"
        sections.append(
            "accounting (pool misses == Σ recorded reads + writes): "
            f"{ok} "
            f"[{accounting.get('pool_misses', '?')} misses vs recorded "
            f"{accounting.get('recorded_reads', '?')}r/"
            f"{accounting.get('recorded_writes', '?')}w]"
        )
    if drift:
        sections.append(format_drift(drift))
    if metrics:
        sections.append(format_metrics(metrics))
    return "\n\n".join(sections) if sections else "no telemetry found"
