"""Telemetry: the metrics registry and the cost-model drift monitor.

The observability layer over everything the earlier PRs measure.  Three
pieces:

* :mod:`repro.telemetry.registry` — :class:`MetricsRegistry`, the
  lock-safe sink (counters, gauges, log-scale histograms) every layer
  publishes into, with a JSON snapshot and a Prometheus text exposition;
* :mod:`repro.telemetry.drift` — :class:`DriftMonitor`, continuously
  comparing the manager's price list
  (:class:`~repro.costmodel.measured.MeasuredCosts`, Eqs. 31–36) against
  the spans' measured page accesses, per (extension, decomposition,
  op-kind);
* :mod:`repro.telemetry.render` — the text tables behind ``repro
  stats``;
* :mod:`repro.telemetry.tracing` — :class:`Tracer` / :class:`Trace` /
  :class:`TraceStore`, per-request span trees with phase-attributed
  latency, head sampling plus tail-based capture (DESIGN §14).

See ``docs/observability.md`` for the metric name catalogue.
"""

from repro.telemetry.registry import (
    HistogramState,
    MetricsRegistry,
    QUANTILE_POINTS,
    estimate_quantile,
    render_prometheus,
)
from repro.telemetry.tracing import (
    Trace,
    TraceStore,
    Tracer,
    activate,
    current_trace,
    maybe_span,
)

# drift (and render, which uses it) reaches through the ASR layer, which
# in turn needs repro.concurrency — and concurrency and repro.context
# need repro.telemetry.tracing (lock-wait attribution, measured rows).
# Loading drift lazily (PEP 562) keeps this package importable from
# both without a cycle: ``from repro.telemetry import DriftMonitor``
# still works, it just resolves on first attribute access.
_LAZY = {
    "DriftMonitor": "repro.telemetry.drift",
    "format_drift": "repro.telemetry.render",
    "format_metrics": "repro.telemetry.render",
    "format_stats": "repro.telemetry.render",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value

__all__ = [
    "MetricsRegistry",
    "HistogramState",
    "estimate_quantile",
    "render_prometheus",
    "QUANTILE_POINTS",
    "Tracer",
    "Trace",
    "TraceStore",
    "activate",
    "current_trace",
    "maybe_span",
    "DriftMonitor",
    "format_metrics",
    "format_drift",
    "format_stats",
]
