"""Drift monitor: entry math, the price list's dispatch, report, publication."""

import math

import pytest

from repro.asr.asr import AccessSupportRelation
from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.asr.manager import ASRManager
from repro.costmodel import MeasuredCosts, QueryCostModel, UpdateCostModel
from repro.costmodel.parameters import ApplicationProfile
from repro.gom import PathExpression
from repro.query import BackwardQuery, ValueRangeQuery
from repro.telemetry import DriftMonitor, MetricsRegistry
from repro.telemetry.drift import UNSUPPORTED, DriftEntry
from repro.workload.generator import ChainGenerator
from repro.workload.opstream import operation_stream
from repro.workload.profiles import FIG14_MIX
from tests.telemetry.test_registry import gauge

SMALL = ApplicationProfile(
    c=(20, 40, 60, 120, 240),
    d=(18, 32, 48, 100),
    fan=(2, 2, 2, 2),
    size=(100,) * 5,
)


@pytest.fixture(scope="module")
def world():
    """A small generated chain with one full ASR over its path."""
    generated = ChainGenerator(seed=4).generate(SMALL)
    manager = ASRManager(generated.db)
    manager.create(generated.path, Extension.FULL)
    return generated, manager


class TestDriftEntry:
    def test_running_ratios(self):
        entry = DriftEntry()
        entry.record(predicted=10.0, observed=20.0)
        entry.record(predicted=10.0, observed=5.0)
        assert entry.count == 2
        assert entry.ratio == pytest.approx(25.0 / 20.0)
        # geomean(2.0, 0.5) == 1.0 — multiplicative errors cancel.
        assert entry.geo_mean_ratio == pytest.approx(1.0)
        assert entry.min_ratio == pytest.approx(0.5)
        assert entry.max_ratio == pytest.approx(2.0)
        assert entry.skipped == 0

    def test_zero_on_either_side_is_skipped_not_poisoned(self):
        entry = DriftEntry()
        entry.record(predicted=0.0, observed=7.0)
        entry.record(predicted=4.0, observed=0.0)
        entry.record(predicted=4.0, observed=8.0)
        assert entry.skipped == 2
        assert entry.finite_count == 1
        assert entry.geo_mean_ratio == pytest.approx(2.0)
        assert math.isfinite(entry.geo_mean_ratio)

    def test_as_dict_is_json_safe_when_nothing_is_finite(self):
        entry = DriftEntry()
        entry.record(predicted=0.0, observed=0.0)
        data = entry.as_dict()
        assert data["min_ratio"] is None and data["max_ratio"] is None
        assert data["ratio"] == 1.0  # 0 observed / 0 predicted: no drift
        assert data["geo_mean_ratio"] == 1.0

    def test_observed_without_prediction_flags_infinite_ratio(self):
        entry = DriftEntry()
        entry.record(predicted=0.0, observed=3.0)
        assert entry.ratio == math.inf
        assert entry.as_dict()["ratio"] is None


class TestTypeDecomposition:
    def test_borders_are_type_indices(self, world):
        generated, manager = world
        asr = manager.asrs[0]
        dec = asr.type_decomposition
        n = generated.path.n
        assert dec.m == n  # the cost model needs m == n
        assert all(0 <= border <= n for border in dec.borders)
        assert list(dec.borders) == sorted(set(dec.borders))


class TestCostModelPredictor:
    """The price list's predictions (:class:`MeasuredCosts`)."""

    def test_query_predictions_follow_the_plan(self, world):
        generated, manager = world
        predictor = MeasuredCosts(generated.db)
        asr = manager.asrs[0]
        query = next(
            op.query
            for op in operation_stream(generated, FIG14_MIX, 80, seed=1)
            if op.kind == "query" and op.query.kind == "bw"
        )
        unsupported = predictor.predict_query(query, None)
        supported = predictor.predict_query(query, asr)
        assert unsupported is not None and unsupported > 0
        assert supported is not None and supported > 0
        # Backward lookups through a full ASR beat the exhaustive
        # traversal — the paper's headline result, reproduced here.
        assert supported < unsupported

    def test_unpriceable_shapes_return_none(self, world):
        generated, manager = world

        class RangeLike:
            kind = "range"
            path = generated.path

        assert manager.costs.predict_query(RangeLike(), None) is None

    def test_update_prediction_is_positive(self, world):
        _generated, manager = world
        predicted = manager.costs.predict_update(1, manager.asrs[0])
        assert predicted is not None and predicted > 0

    def test_value_range_is_priced_as_the_point_backward_query(self, world):
        """The front door ranks range selects by this price: ``None`` would
        price the ASR and the fallback alike at inf, and every range select
        would fall to the nested loop."""
        generated, _manager = world
        db = generated.db
        path = PathExpression(db.schema, "T0", ("A",) * generated.n + ("Payload",))
        asr = AccessSupportRelation(path, Extension.FULL, Decomposition.none(path.m))
        costs = MeasuredCosts(db)
        for i in range(path.n):
            ranged = ValueRangeQuery(path, i, path.n, lo=0, hi=10)
            point = BackwardQuery(path, i, path.n, target=0)
            for candidate in (asr, None):
                price = costs.predict_query(ranged, candidate)
                assert price is not None
                assert price == costs.predict_query(point, candidate)

    def test_warm_cache_repeats_the_cold_predictions(self, monkeypatch):
        """Memoised results equal a fresh price list's, ``None`` included,
        for every extension — and a repeat costs no model evaluation."""
        generated = ChainGenerator(seed=3).generate(SMALL)

        class Q:
            path = generated.path

            def __init__(self, i, j, kind):
                self.i, self.j, self.kind = i, j, kind

        path, n = generated.path, SMALL.n
        shapes = [
            AccessSupportRelation(path, extension, decomposition)
            for extension in Extension
            for decomposition in (Decomposition.none(path.m), Decomposition.binary(path.m))
        ] + [None]
        queries = [
            Q(i, j, kind)
            for i in range(n)
            for j in range(i + 1, n + 2)  # j = n + 1: outside the profile
            for kind in ("fw", "bw", "range")
        ]
        warm = MeasuredCosts(generated.db)

        def ask(predictor):
            answers = [
                predictor.predict_query(query, shape)
                for shape in shapes
                for query in queries
            ]
            answers += [
                predictor.predict_update(level, shape)
                for shape in shapes[:-1]
                for level in range(n + 2)
            ]
            return answers

        cold = ask(warm)
        assert any(answer is None for answer in cold)
        assert any(answer is not None and answer > 0 for answer in cold)
        assert ask(MeasuredCosts(generated.db)) == cold

        reentered = []
        for model, names in (
            (QueryCostModel, ("qnas", "qsup")),
            (UpdateCostModel, ("search", "aup")),
        ):
            for name in names:
                monkeypatch.setattr(
                    model, name, lambda *args, **kwargs: reentered.append(args)
                )
        assert ask(warm) == cold
        assert not reentered


class TestDriftMonitor:
    def test_report_aggregates_by_key(self):
        monitor = DriftMonitor()
        monitor.record("full", "(0, 4)", "fw", predicted=10.0, observed=20.0)
        monitor.record("full", "(0, 4)", "fw", predicted=10.0, observed=5.0)
        monitor.record(UNSUPPORTED, "-", "bw", predicted=8.0, observed=8.0)
        report = monitor.report()
        keys = {(e["extension"], e["decomposition"], e["op"]) for e in report["by_key"]}
        assert keys == {("full", "(0, 4)", "fw"), (UNSUPPORTED, "-", "bw")}
        overall = report["overall"]
        assert overall["count"] == 3
        assert overall["skipped"] == 0
        # geomean(2, 0.5, 1) == 1
        assert overall["geo_mean_ratio"] == pytest.approx(1.0)
        assert overall["finite"] is True

    def test_empty_monitor_reports_unit_ratio(self):
        report = DriftMonitor().report()
        assert report["by_key"] == []
        assert report["overall"] == {
            "count": 0,
            "skipped": 0,
            "geo_mean_ratio": 1.0,
            "finite": True,
        }

    def test_record_bumps_registry_counter(self):
        registry = MetricsRegistry()
        monitor = DriftMonitor(registry=registry)
        monitor.record("full", "(0, 4)", "fw", 1.0, 2.0)
        assert (
            registry.counter_value(
                "drift.observations", extension="full", decomposition="(0, 4)", op="fw"
            )
            == 1
        )

    def test_publish_writes_ratio_gauges(self):
        """The registry's ratio gauges are read from the entries: the
        first read after a record already carries it."""
        registry = MetricsRegistry()
        monitor = DriftMonitor(registry=registry)
        monitor.record("full", "(0, 4)", "fw", predicted=10.0, observed=5.0)
        labels = {"extension": "full", "decomposition": "(0, 4)", "op": "fw"}
        assert gauge(registry, "drift.ratio", **labels) == pytest.approx(0.5)
        assert gauge(registry, "drift.geo_mean_ratio", **labels) == pytest.approx(
            0.5
        )
        assert gauge(registry, "drift.overall_geo_mean_ratio") == pytest.approx(
            0.5
        )

    def test_observe_query_keys_on_the_executed_plan(self, world):
        generated, manager = world
        monitor = DriftMonitor(manager.costs)
        asr = manager.asrs[0]
        query = next(
            op.query
            for op in operation_stream(generated, FIG14_MIX, 40, seed=2)
            if op.kind == "query"
        )
        monitor.observe_query(query, asr, observed_pages=6)
        monitor.observe_query(query, None, observed_pages=40)
        report = monitor.report()
        extensions = {e["extension"] for e in report["by_key"]}
        assert extensions == {asr.extension.value, UNSUPPORTED}

    def test_observe_update_sums_per_asr_predictions(self, world):
        _generated, manager = world
        predictor = manager.costs
        monitor = DriftMonitor(predictor)
        asr = manager.asrs[0]
        single = predictor.predict_update(1, asr)
        monitor.observe_update(1, [asr, asr], observed_pages=12)
        (entry,) = monitor.report()["by_key"]
        assert entry["op"] == "ins_1"
        assert entry["predicted_pages"] == pytest.approx(2 * single, abs=0.01)

    def test_observe_update_apportions_across_distinct_asrs(self):
        # Two ASRs of different extensions over the same path: one
        # measured page delta must split per ASR by prediction share and
        # land under per-ASR keys — not all on the first ASR.
        generated = ChainGenerator(seed=9).generate(SMALL)
        manager = ASRManager(generated.db)
        manager.create(generated.path, Extension.FULL)
        manager.create(generated.path, Extension.LEFT)
        full, left = manager.asrs
        assert full.extension is not left.extension
        predictor = manager.costs
        monitor = DriftMonitor(predictor)
        predictions = {
            asr.extension.value: predictor.predict_update(1, asr)
            for asr in (full, left)
        }
        observed = 30.0
        monitor.observe_update(1, [full, left], observed_pages=observed)

        entries = {e["extension"]: e for e in monitor.report()["by_key"]}
        assert set(entries) == {"full", "left"}
        total_predicted = sum(predictions.values())
        for name, entry in entries.items():
            assert entry["op"] == "ins_1"
            # Each key carries its *own* prediction...
            assert entry["predicted_pages"] == pytest.approx(
                predictions[name], abs=0.01
            )
            # ...and its proportional share of the one observed delta.
            assert entry["observed_pages"] == pytest.approx(
                observed * predictions[name] / total_predicted, abs=0.01
            )
        assert sum(e["observed_pages"] for e in entries.values()) == pytest.approx(
            observed, abs=0.02
        )

    def test_observe_without_predictor_is_a_noop(self, world):
        _generated, manager = world
        monitor = DriftMonitor()
        monitor.observe_update(1, manager.asrs, observed_pages=3)
        assert monitor.report()["overall"]["count"] == 0
