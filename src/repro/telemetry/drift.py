"""Live predicted-vs-observed cost-model drift monitoring.

The paper's entire argument rests on an *analytical* cost model (Yao's
formula, Eqs. 16–34) predicting page accesses per (extension,
decomposition) choice; the advisor ranks physical designs by those
predictions.  Nothing so far checked the predictions against what the
running system actually does — the methodology gap Darmont & Gruenwald
close for clustering strategies by measuring simulated workloads.

:class:`DriftMonitor` closes it here: for every executed plan it records
the model's predicted page accesses next to the span's measured
``page_reads + page_writes`` and maintains, per
``(extension, decomposition, op-kind)`` key, running error ratios —
observed/predicted totals and the geometric mean of the per-operation
ratios (the standard scale-free aggregate for multiplicative error).  A
drift report close to 1.0 means the advisor's rankings can be trusted on
this workload; a sustained departure means the profile drifted or the
model term is wrong, and names which term.

The predictions come from the manager's price list
(:class:`~repro.costmodel.measured.MeasuredCosts`, ``ASRManager.costs``):
Eqs. 31–32 for unsupported plans, Eqs. 33–34 (over the ASR's
decomposition in type indices,
:attr:`~repro.asr.asr.AccessSupportRelation.type_decomposition`) for
supported ones, and the section 6 ``search + aup`` maintenance terms for
``ins_i`` updates.  Every planner over the manager and the advisor
loop price through the same object, so the prices ``/drift``
validates are the prices plans were ranked by.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.costmodel.measured import MeasuredCosts
from repro.query.queries import Query
from repro.telemetry.registry import MetricsRegistry

__all__ = ["DriftMonitor"]

#: Key label for plans answered without any ASR.
UNSUPPORTED = "unsupported"


@dataclass
class DriftEntry:
    """Running error aggregate of one (extension, decomposition, op) key."""

    count: int = 0
    predicted_total: float = 0.0
    observed_total: float = 0.0
    #: Observations where both sides were positive (geomean-eligible).
    finite_count: int = 0
    log_ratio_sum: float = 0.0
    min_ratio: float = math.inf
    max_ratio: float = -math.inf
    #: Observations skipped from the geomean (a zero on either side).
    skipped: int = 0

    def record(self, predicted: float, observed: float) -> None:
        """Fold one (predicted, observed) page-access pair in."""
        self.count += 1
        self.predicted_total += predicted
        self.observed_total += observed
        if predicted > 0 and observed > 0:
            ratio = observed / predicted
            self.finite_count += 1
            self.log_ratio_sum += math.log(ratio)
            self.min_ratio = min(self.min_ratio, ratio)
            self.max_ratio = max(self.max_ratio, ratio)
        else:
            self.skipped += 1

    @property
    def ratio(self) -> float:
        """Observed/predicted page totals (inf when predicted is 0)."""
        if self.predicted_total > 0:
            return self.observed_total / self.predicted_total
        return math.inf if self.observed_total else 1.0

    @property
    def geo_mean_ratio(self) -> float:
        """Geometric mean of per-operation observed/predicted ratios."""
        if not self.finite_count:
            return 1.0
        return math.exp(self.log_ratio_sum / self.finite_count)

    def as_dict(self) -> dict:
        """JSON-able summary of this key's drift."""
        return {
            "count": self.count,
            "predicted_pages": round(self.predicted_total, 2),
            "observed_pages": round(self.observed_total, 2),
            "ratio": round(self.ratio, 4) if math.isfinite(self.ratio) else None,
            "geo_mean_ratio": round(self.geo_mean_ratio, 4),
            "min_ratio": round(self.min_ratio, 4) if self.finite_count else None,
            "max_ratio": round(self.max_ratio, 4) if self.finite_count else None,
            "skipped": self.skipped,
        }


class DriftMonitor:
    """Accumulates predicted-vs-observed page accesses per plan shape.

    Parameters
    ----------
    predictor:
        Optional :class:`~repro.costmodel.measured.MeasuredCosts`, the
        manager's price list; required for the ``observe_query`` /
        ``observe_update`` convenience entry points
        (``record`` always works with caller-supplied predictions; a
        plan carries the price it was chosen at, which is this
        predictor's price when the planner ranks by the same list).
    registry:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`.  Its
        ``drift.observations{extension, decomposition, op}`` counters and
        its ``drift.ratio`` / ``drift.geo_mean_ratio`` (same labels) and
        ``drift.overall_geo_mean_ratio`` gauges are read from
        :meth:`report` whenever the registry is read (a
        :meth:`~repro.telemetry.registry.MetricsRegistry.source`):
        recording a pair makes no registry call, and a read sees every
        pair recorded before it.

    Thread-safe: planner threads of a serve run share one monitor.
    """

    def __init__(self, predictor: MeasuredCosts | None = None, registry=None):
        self.predictor = predictor
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str, str], DriftEntry] = {}
        if registry is not None:
            registry.source(self._series)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(
        self,
        extension: str,
        decomposition: str,
        op: str,
        predicted: float,
        observed: float,
    ) -> None:
        """Fold one executed operation into the drift aggregates."""
        key = (extension, decomposition, op)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = DriftEntry()
            entry.record(predicted, observed)

    def observe_query(
        self, query: Query, asr, observed_pages: float, predicted: float | None = None
    ) -> None:
        """Record an executed query answered through ``asr`` (``None``:
        unsupported).

        ``predicted`` is the price the plan was chosen at (the planner
        passes ``Plan.estimated_pages``, the predictor's price by
        construction); omitted, the predictor prices the query here.  A
        shape the model does not price (``None``, or a plan's ``inf``)
        is not recorded.
        """
        if self.predictor is None:
            return
        if predicted is None:
            predicted = self.predictor.predict_query(query, asr)
        if predicted is None or predicted == math.inf:
            return
        if asr is None:
            extension, decomposition = UNSUPPORTED, "-"
        else:
            extension = asr.extension.value
            decomposition = asr.drift_label
        self.record(extension, decomposition, query.kind, predicted, observed_pages)

    def observe_update(self, level: int, asrs, observed_pages: float) -> None:
        """Record one ``ins_level`` and its measured maintenance pages.

        The measured delta covers every maintained ASR at once, but one
        (extension, decomposition) key must not absorb another's pages:
        the delta is apportioned per ASR by its share of the summed
        per-ASR predictions (evenly when the model predicts zero for
        all), and one sample is recorded per ASR under its own key.
        With a single maintained ASR this is exactly the whole delta
        against the whole prediction.
        """
        if self.predictor is None or not asrs:
            return
        predictions = [self.predictor.predict_update(level, asr) for asr in asrs]
        if any(p is None for p in predictions):
            return
        total_predicted = sum(predictions)
        for asr, predicted in zip(asrs, predictions):
            if total_predicted > 0:
                share = observed_pages * (predicted / total_predicted)
            else:
                share = observed_pages / len(asrs)
            self.record(
                asr.extension.value,
                asr.drift_label,
                f"ins_{level}",
                predicted,
                share,
            )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def report(self) -> dict:
        """The drift report: per-key aggregates plus the overall geomean."""
        with self._lock:
            items = sorted(self._entries.items())
            entries = [
                {
                    "extension": extension,
                    "decomposition": decomposition,
                    "op": op,
                    **entry.as_dict(),
                }
                for (extension, decomposition, op), entry in items
            ]
            finite = sum(e.finite_count for _, e in items)
            log_sum = sum(e.log_ratio_sum for _, e in items)
            overall = {
                "count": sum(e.count for _, e in items),
                "skipped": sum(e.skipped for _, e in items),
                "geo_mean_ratio": (
                    round(math.exp(log_sum / finite), 4) if finite else 1.0
                ),
            }
        overall["finite"] = math.isfinite(overall["geo_mean_ratio"])
        return {"by_key": entries, "overall": overall}

    def _series(self) -> tuple[list, list]:
        """The registry's drift series, ``(counters, gauges)``, from
        :meth:`report`: one ``drift.observations`` count and its ratio
        gauges per key (no ``drift.ratio`` while it is infinite), and the
        overall geometric mean."""
        report = self.report()
        counters, gauges = [], []
        for entry in report["by_key"]:
            extension, decomposition, op = (
                entry["extension"],
                entry["decomposition"],
                entry["op"],
            )
            counters.append(
                (
                    MetricsRegistry.series(
                        "drift.observations",
                        extension=extension,
                        decomposition=decomposition,
                        op=op,
                    ),
                    entry["count"],
                )
            )
            labels = {"extension": extension, "decomposition": decomposition, "op": op}
            if entry["ratio"] is not None:
                gauges.append(
                    (MetricsRegistry.series("drift.ratio", **labels), entry["ratio"])
                )
            gauges.append(
                (
                    MetricsRegistry.series("drift.geo_mean_ratio", **labels),
                    entry["geo_mean_ratio"],
                )
            )
        gauges.append(
            (
                MetricsRegistry.series("drift.overall_geo_mean_ratio"),
                report["overall"]["geo_mean_ratio"],
            )
        )
        return counters, gauges
