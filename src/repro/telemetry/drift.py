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

:class:`CostModelPredictor` supplies the predictions: Eqs. 31–32 for
unsupported plans, Eqs. 33–34 (over the ASR's decomposition in type
indices, :attr:`~repro.asr.asr.AccessSupportRelation.type_decomposition`)
for supported ones, and the section 6 ``search + aup`` maintenance terms
for ``ins_i`` updates.  :class:`MeasuredCosts` keeps one such predictor
per path over that path's measured profile.  A world owns exactly one,
held by its manager as ``ASRManager.costs``
(:func:`~repro.bench.serve.build_world`): the drift monitor, every
planner over the manager and the adaptive designer all price through
it, so the prices ``/drift`` validates are the prices plans were ranked
by.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from repro.costmodel.parameters import ApplicationProfile
from repro.costmodel.profiling import profile_from_database
from repro.costmodel.querycost import QueryCostModel
from repro.costmodel.updatecost import UpdateCostModel
from repro.gom.paths import PathExpression
from repro.query.queries import Query

__all__ = ["DriftMonitor", "CostModelPredictor", "MeasuredCosts"]

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


class CostModelPredictor:
    """Predicts page accesses for executed operations from one profile.

    Built over the *measured* profile of the generated world (so the
    drift isolates model error, not input error).  Query predictions
    follow the Eq. 35 dispatch the executed plan actually took; update
    predictions price the ASR maintenance terms (``search + aup``)
    without the flat object-representation constant, because the
    simulator charges maintenance pages only.
    """

    def __init__(self, profile: ApplicationProfile) -> None:
        self.profile = profile
        self.query_model = QueryCostModel(profile)
        self.update_model = UpdateCostModel(profile)
        # Predictions are pure functions of the (immutable) profile and
        # the key, so each is computed once; ``None`` results cache too.
        # Unlocked: racing threads would store the same value.
        self._memo: dict[tuple, float | None] = {}

    def _memoised(self, key: tuple, compute) -> float | None:
        try:
            return self._memo[key]
        except KeyError:
            pass
        try:
            predicted = compute()
        except Exception:
            predicted = None
        self._memo[key] = predicted
        return predicted

    def predict_query(self, query: Query, asr) -> float | None:
        """Predicted pages for ``query`` as executed (``asr=None`` ⇒ Eqs. 31–32).

        A :class:`~repro.query.queries.ValueRangeQuery` has ``kind ==
        "bw"`` and is priced as the point backward query over the same
        ``(i, j)``: the model has no selectivity term, and the front door
        ranks range selects by that price.  Returns ``None`` for shapes
        the model does not price (a kind other than ``fw`` / ``bw``, a
        range outside the profile) — callers skip those.
        """
        if query.kind not in ("fw", "bw"):
            return None
        i, j, kind = query.i, query.j, query.kind
        if asr is None:
            return self._memoised(
                ("query", i, j, kind), lambda: self.query_model.qnas(i, j, kind)
            )
        extension, dec = asr.extension, asr.type_decomposition
        return self._memoised(
            ("query", i, j, kind, extension, dec),
            lambda: self.query_model.qsup(extension, i, j, kind, dec),
        )

    def predict_update(self, level: int, asr) -> float | None:
        """Predicted maintenance pages of ``ins_level`` against ``asr``."""
        extension, dec = asr.extension, asr.type_decomposition
        model = self.update_model
        return self._memoised(
            ("update", level, extension, dec),
            lambda: model.search(extension, level, dec)
            + model.aup(extension, level, dec),
        )


class MeasuredCosts:
    """One :class:`CostModelPredictor` per path, over a measured profile.

    The profile of a path is measured from ``db`` on the first price
    asked over it (:func:`~repro.costmodel.profiling.profile_from_database`;
    ``object_sizes`` maps type names to byte sizes, defaulting to
    ``default_size``) and kept with its predictor's memo until
    :meth:`invalidate`.  Its one caller is
    :meth:`~repro.asr.adaptive.AdaptiveDesigner.recommend`: an advisor
    sweep re-measures its path, and every other reader prices from that
    profile until the next sweep.  Queries are priced over their own
    path, updates over the maintained ASR's.  Unlocked like the
    predictor's memo: racing threads measure the same object base and
    store an equal profile.
    """

    def __init__(
        self,
        db,
        object_sizes: dict[str, int] | None = None,
        default_size: int = 100,
    ) -> None:
        self.db = db
        self.object_sizes = object_sizes
        self.default_size = default_size
        self._predictors: dict[PathExpression, CostModelPredictor] = {}

    def predictor_for(self, path: PathExpression) -> CostModelPredictor:
        """The (cached) predictor over the measured profile of ``path``."""
        predictor = self._predictors.get(path)
        if predictor is None:
            predictor = self._predictors[path] = CostModelPredictor(
                profile_from_database(
                    self.db, path, self.object_sizes, self.default_size
                )
            )
        return predictor

    def predict_query(self, query: Query, asr) -> float | None:
        """:meth:`CostModelPredictor.predict_query` over ``query.path``."""
        return self.predictor_for(query.path).predict_query(query, asr)

    def predict_update(self, level: int, asr) -> float | None:
        """:meth:`CostModelPredictor.predict_update` over ``asr.path``."""
        return self.predictor_for(asr.path).predict_update(level, asr)

    def invalidate(self, path: PathExpression | None = None) -> None:
        """Drop the profile and memo of ``path`` (of every path when ``None``)."""
        if path is None:
            self._predictors.clear()
        else:
            self._predictors.pop(path, None)


class DriftMonitor:
    """Accumulates predicted-vs-observed page accesses per plan shape.

    Parameters
    ----------
    predictor:
        Optional :class:`MeasuredCosts` (or one bare
        :class:`CostModelPredictor`: anything with ``predict_query`` /
        ``predict_update``); required for the ``observe_query`` /
        ``observe_update`` convenience entry points (``record`` always
        works with caller-supplied predictions).
    registry:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry` into
        which every recorded pair bumps the ``drift.observations``
        counter; :meth:`publish` writes the ratio gauges.

    Thread-safe: planner threads of a serve run share one monitor.
    """

    def __init__(
        self,
        predictor: MeasuredCosts | CostModelPredictor | None = None,
        registry=None,
    ):
        self.predictor = predictor
        self.registry = registry
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str, str], DriftEntry] = {}

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
        if self.registry is not None:
            self.registry.inc(
                "drift.observations",
                extension=extension,
                decomposition=decomposition,
                op=op,
            )

    def observe_query(self, query: Query, asr, observed_pages: float) -> None:
        """Record an executed query plan (``asr=None`` for unsupported)."""
        if self.predictor is None:
            return
        predicted = self.predictor.predict_query(query, asr)
        if predicted is None:
            return
        if asr is None:
            extension, decomposition = UNSUPPORTED, "-"
        else:
            extension = asr.extension.value
            decomposition = str(asr.type_decomposition)
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
                str(asr.type_decomposition),
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

    def publish(self, registry=None) -> None:
        """Write the current ratios into a registry as gauges."""
        registry = registry if registry is not None else self.registry
        if registry is None:
            return
        report = self.report()
        for entry in report["by_key"]:
            labels = {
                "extension": entry["extension"],
                "decomposition": entry["decomposition"],
                "op": entry["op"],
            }
            if entry["ratio"] is not None:
                registry.set_gauge("drift.ratio", entry["ratio"], **labels)
            registry.set_gauge(
                "drift.geo_mean_ratio", entry["geo_mean_ratio"], **labels
            )
        registry.set_gauge(
            "drift.overall_geo_mean_ratio", report["overall"]["geo_mean_ratio"]
        )
