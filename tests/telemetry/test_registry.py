"""MetricsRegistry: buckets, families, snapshots, exposition, threads."""

import json
import math
import re
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import MetricsRegistry
from repro.telemetry.registry import (
    BUCKET_BASE,
    MAX_BUCKET_INDEX,
    MIN_BUCKET_INDEX,
    QUANTILE_POINTS,
    HistogramState,
    bucket_index,
    estimate_quantile,
    render_prometheus,
)


def gauge(registry: MetricsRegistry, name: str, **labels: str) -> float | None:
    """One gauge's value as :meth:`MetricsRegistry.snapshot` reports it."""
    for entry in registry.snapshot()["gauges"].get(name, ()):
        if entry["labels"] == labels:
            return entry["value"]
    return None


class TestBucketIndex:
    def test_zero_and_negative_fall_into_none_bucket(self):
        assert bucket_index(0.0) is None
        assert bucket_index(-3.5) is None

    def test_exact_power_belongs_to_its_own_bound(self):
        # Bucket i covers (2^(i-1), 2^i]: a value exactly on a bound is
        # counted under that bound, not the next one up.
        assert bucket_index(1.0) == 0
        assert bucket_index(2.0) == 1
        assert bucket_index(8.0) == 3
        assert bucket_index(BUCKET_BASE**10) == 10

    def test_interior_values_round_up(self):
        assert bucket_index(1.5) == 1
        assert bucket_index(2.1) == 2
        assert bucket_index(1000.0) == 10  # 2^9 < 1000 <= 2^10

    def test_clamped_to_fixed_range(self):
        assert bucket_index(1e-20) == MIN_BUCKET_INDEX
        assert bucket_index(1e20) == MAX_BUCKET_INDEX

    def test_bounds_partition_the_line(self):
        # Every bucket's lower bound is excluded, upper bound included.
        for index in (-3, 0, 5):
            upper = BUCKET_BASE**index
            assert bucket_index(upper) == index
            assert bucket_index(upper * 1.0001) == index + 1

    def test_the_float_just_above_a_bound_opens_the_next_bucket(self):
        # A rounded logarithm filed this one bucket low (-20).
        assert bucket_index(math.nextafter(2.0**-20, math.inf)) == -19

    def test_every_bound_and_its_neighbours_match_exact_arithmetic(self):
        for index in range(MIN_BUCKET_INDEX - 5, MAX_BUCKET_INDEX + 6):
            bound = BUCKET_BASE**index
            for value in (
                math.nextafter(bound, 0.0),
                bound,
                math.nextafter(bound, math.inf),
            ):
                assert bucket_index(value) == reference_bucket(value), value

    @given(
        st.floats(
            min_value=0.0,
            exclude_min=True,
            allow_nan=False,
            allow_infinity=False,
        )
    )
    def test_any_positive_float_matches_exact_arithmetic(self, value):
        assert bucket_index(value) == reference_bucket(value)


def reference_bucket(value: float) -> int:
    """The least clamped ``i`` with ``value <= 2^i``, in exact rationals."""
    exact, index = Fraction(value), MIN_BUCKET_INDEX
    while index < MAX_BUCKET_INDEX and exact > Fraction(2) ** index:
        index += 1
    return index


class TestHistogramState:
    def test_summaries(self):
        state = HistogramState()
        for value in (1.0, 4.0, 16.0):
            state.observe(value)
        assert state.count == 3
        assert state.total == 21.0
        assert state.min == 1.0
        assert state.max == 16.0
        assert state.mean == 7.0

    def test_as_dict_materializes_le_bounds(self):
        state = HistogramState()
        state.observe(0.0)  # the <= 0 bucket
        state.observe(3.0)  # bucket 2, le = 4
        data = state.as_dict()
        assert [b["le"] for b in data["buckets"]] == [0.0, 4.0]
        assert all(b["count"] == 1 for b in data["buckets"])

    def test_empty_histogram_is_json_safe(self):
        data = HistogramState().as_dict()
        assert data["count"] == 0 and data["min"] == 0.0 and data["max"] == 0.0
        json.dumps(data)  # no inf leaks


class TestFamilies:
    def test_counters_accumulate_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("ops", op="fw")
        registry.inc("ops", 2, op="fw")
        registry.inc("ops", op="bw")
        assert registry.counter_value("ops", op="fw") == 3
        assert registry.counter_value("ops", op="bw") == 1
        assert registry.counter_value("ops", op="never") == 0

    def test_gauges_keep_last_value(self):
        registry = MetricsRegistry()
        registry.set_gauge("pool.hit_rate", 0.25)
        registry.set_gauge("pool.hit_rate", 0.75)
        assert gauge(registry, "pool.hit_rate") == 0.75
        assert gauge(registry, "absent") is None

    def test_callable_gauges_are_lazy(self):
        registry = MetricsRegistry()
        calls = []

        def occupancy():
            calls.append(1)
            return 7.0

        registry.gauge_fn("pool.occupancy", occupancy)
        assert not calls  # registration alone never evaluates
        assert gauge(registry, "pool.occupancy") == 7.0
        snap = registry.snapshot()
        assert snap["gauges"]["pool.occupancy"][0]["value"] == 7.0
        assert len(calls) == 2

    def test_callable_gauge_may_publish_back_into_the_registry(self):
        # Gauge fns run *outside* the registry lock, so a gauge reading
        # a structure that itself publishes cannot deadlock.
        registry = MetricsRegistry()

        def nosy():
            registry.inc("gauge.reads")
            return 1.0

        registry.gauge_fn("nosy", nosy)
        assert registry.snapshot()["gauges"]["nosy"][0]["value"] == 1.0
        assert registry.counter_value("gauge.reads") == 1

    def test_histogram_accessor(self):
        registry = MetricsRegistry()
        registry.observe("span.pages", 5.0, op="fw")
        registry.observe("span.pages", 11.0, op="fw")
        state = registry.histogram("span.pages", op="fw")
        assert state.count == 2 and state.total == 16.0
        assert registry.histogram("span.pages", op="bw") is None


class TestSnapshotRoundTrip:
    def build(self):
        registry = MetricsRegistry()
        registry.inc("ops", 3, op="fw")
        registry.set_gauge("pool.hit_rate", 0.5)
        registry.gauge_fn("pool.occupancy", lambda: 2.0)
        for value in (0.0, 1.0, 3.0, 100.0):
            registry.observe("op.latency_ms", value, kind="query")
        return registry

    def test_snapshot_is_json_able(self):
        snap = self.build().snapshot()
        json.dumps(snap)
        assert snap["counters"]["ops"][0] == {"labels": {"op": "fw"}, "value": 3}

    def test_rendering_a_snapshot_equals_the_live_exposition(self):
        registry = self.build()
        registry.observe("op.latency_ms", 0.0, kind="update")  # the le=0 bucket
        # Saved as the drain report saves it, so `repro stats
        # --prometheus` renders exactly what a live scrape would.
        saved = json.loads(json.dumps(registry.snapshot()))
        assert render_prometheus(saved) == registry.render_prometheus()


class TestPrometheus:
    def test_counter_gauge_histogram_conventions(self):
        registry = MetricsRegistry()
        registry.inc("asr.lookups", 2, extension="full")
        registry.set_gauge("pool.hit_rate", 0.5)
        registry.observe("span.pages", 1.0)
        registry.observe("span.pages", 3.0)
        text = registry.render_prometheus()
        assert '# TYPE repro_asr_lookups_total counter' in text
        assert 'repro_asr_lookups_total{extension="full"} 2' in text
        assert "repro_pool_hit_rate 0.5" in text
        # Histogram buckets are cumulative and end with +Inf == count.
        assert 'repro_span_pages_bucket{le="1.0"} 1' in text
        assert 'repro_span_pages_bucket{le="4.0"} 2' in text
        assert 'repro_span_pages_bucket{le="+Inf"} 2' in text
        assert "repro_span_pages_sum 4.0" in text
        assert "repro_span_pages_count 2" in text

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("query.degraded-fallback")
        text = registry.render_prometheus()
        assert "repro_query_degraded_fallback_total 1" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_label_values_escaped_per_exposition_format(self):
        # The text format requires \\, \", and \n escapes inside label
        # values — anything else corrupts the whole scrape.
        registry = MetricsRegistry()
        hostile = 'quote:" backslash:\\ newline:\n end'
        registry.inc("ops", path=hostile)
        text = registry.render_prometheus()
        line = next(
            ln for ln in text.splitlines() if ln.startswith("repro_ops_total{")
        )
        assert '\\"' in line
        assert "\\\\" in line
        assert "\\n" in line
        assert "\n" not in line  # the raw newline must not split the line

    def test_hostile_label_values_round_trip(self):
        registry = MetricsRegistry()
        hostile = {
            "a": 'x="1"',
            "b": "back\\slash",
            "c": "multi\nline\nvalue",
            "d": 'all three: \\ " \n!',
        }
        for key, value in hostile.items():
            registry.inc("ops", key=key, payload=value)
        text = registry.render_prometheus()

        def unescape(value: str) -> str:
            out, i = [], 0
            while i < len(value):
                if value[i] == "\\" and i + 1 < len(value):
                    out.append(
                        {"n": "\n", "\\": "\\", '"': '"'}[value[i + 1]]
                    )
                    i += 2
                else:
                    out.append(value[i])
                    i += 1
            return "".join(out)

        recovered = {}
        for line in text.splitlines():
            if not line.startswith("repro_ops_total{"):
                continue
            labels = dict(
                re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', line)
            )
            recovered[unescape(labels["key"])] = unescape(labels["payload"])
        assert recovered == hostile


class TestQuantileEstimation:
    """Pin the geometric (log-linear) interpolation to exact values."""

    def hist(self, *values):
        state = HistogramState()
        for value in values:
            state.observe(value)
        return state.as_dict()

    def test_pinned_values_for_one_two_four_eight(self):
        # Observations 1, 2, 4, 8 land one per bucket (le = 1, 2, 4, 8).
        hist = self.hist(1.0, 2.0, 4.0, 8.0)
        # p50: rank 2.0 tops out bucket le=2 exactly -> its upper bound.
        assert estimate_quantile(hist, 0.5) == 2.0
        # p95: rank 3.8 sits 0.8 into bucket (4, 8]; log-linear within
        # the bucket gives 4 * 2**0.8.
        assert estimate_quantile(hist, 0.95) == pytest.approx(
            4.0 * 2.0**0.8, rel=1e-12
        )
        # p99: rank 3.96 -> 4 * 2**0.96.
        assert estimate_quantile(hist, 0.99) == pytest.approx(
            4.0 * 2.0**0.96, rel=1e-12
        )

    def test_single_valued_histogram_is_exact_at_every_quantile(self):
        # min/max clamping pins every quantile of a constant stream.
        hist = self.hist(3.0, 3.0, 3.0, 3.0, 3.0)
        for q in QUANTILE_POINTS:
            assert estimate_quantile(hist, q) == 3.0

    def test_empty_histogram_reports_zero(self):
        assert estimate_quantile(self.hist(), 0.5) == 0.0

    def test_zero_bucket_has_no_geometric_span(self):
        assert estimate_quantile(self.hist(0.0, 0.0), 0.5) == 0.0

    def test_quantile_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            estimate_quantile(self.hist(1.0), 1.5)

    def test_rendered_quantile_lines(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 4.0, 8.0):
            registry.observe("lat", value)
        text = registry.render_prometheus()
        assert "# TYPE repro_lat_quantile gauge" in text
        assert 'repro_lat_quantile{quantile="0.5"} 2.0' in text
        p95_line = next(
            line
            for line in text.splitlines()
            if line.startswith('repro_lat_quantile{quantile="0.95"}')
        )
        assert float(p95_line.split()[-1]) == pytest.approx(
            4.0 * 2.0**0.8, rel=1e-9
        )


class TestExemplars:
    def test_exemplar_attaches_to_the_matching_bucket_line(self):
        registry = MetricsRegistry()
        registry.observe("lat", 3.0, exemplar="t0007-00000001")
        text = registry.render_prometheus()
        # 3.0 lands in bucket le=4; OpenMetrics-style suffix follows it.
        assert (
            'repro_lat_bucket{le="4.0"} 1 # {trace_id="t0007-00000001"} 3.0'
            in text
        )

    def test_newest_exemplar_wins(self):
        registry = MetricsRegistry()
        registry.observe("lat", 3.0, exemplar="t-old")
        registry.observe("lat", 100.0, exemplar="t-new")
        state = registry.histogram("lat")
        assert state.exemplar["trace_id"] == "t-new"
        assert state.exemplar["value"] == 100.0

    def test_observation_without_exemplar_keeps_the_last_one(self):
        registry = MetricsRegistry()
        registry.observe("lat", 3.0, exemplar="t-1")
        registry.observe("lat", 5.0)
        assert registry.histogram("lat").exemplar["trace_id"] == "t-1"

    def test_exemplar_round_trips_through_snapshot(self):
        registry = MetricsRegistry()
        registry.observe("lat", 3.0, exemplar="t-1")
        saved = json.loads(json.dumps(registry.snapshot()))
        text = render_prometheus(saved)
        assert text == registry.render_prometheus()
        assert 'repro_lat_bucket{le="4.0"} 1 # {trace_id="t-1"} 3.0' in text


class TestConcurrentPublishers:
    def test_totals_are_exact_under_contention(self):
        registry = MetricsRegistry()
        workers, rounds = 8, 500

        def publish(k):
            for i in range(rounds):
                registry.inc("ops", op="stress")
                registry.observe("lat", float(i % 7 + 1), worker=str(k))
                registry.set_gauge("last", float(i), worker=str(k))

        threads = [
            threading.Thread(target=publish, args=(k,)) for k in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("ops", op="stress") == workers * rounds
        for k in range(workers):
            state = registry.histogram("lat", worker=str(k))
            assert state.count == rounds
            assert sum(state.buckets.values()) == rounds
            assert gauge(registry, "last", worker=str(k)) == rounds - 1

    def test_snapshot_during_publishing_never_tears(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def publish():
            while not stop.is_set():
                registry.observe("h", 2.0)

        thread = threading.Thread(target=publish)
        thread.start()
        try:
            for _ in range(50):
                snap = registry.snapshot()
                for entry in snap["histograms"].get("h", []):
                    # count always equals the bucket total: one lock
                    # covers both updates.
                    assert sum(b["count"] for b in entry["buckets"]) == entry["count"]
        finally:
            stop.set()
            thread.join()
