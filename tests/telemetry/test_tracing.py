"""Tracer/Trace/TraceStore: sampling, tail capture, span trees, the ring."""

import json
import logging

import pytest

from repro.storage.stats import AccessStats
from repro.telemetry import MetricsRegistry
from repro.telemetry.tracing import (
    PHASES,
    TAIL_OUTCOMES,
    Trace,
    TraceStore,
    Tracer,
    activate,
    current_trace,
    maybe_span,
    record_pages,
)


class TestDisabledTracer:
    def test_begin_returns_none_when_off(self):
        tracer = Tracer(sample_rate=0.0, slow_trace_ms=None)
        assert not tracer.enabled
        assert tracer.begin("op", "select") is None

    def test_finish_of_none_is_a_noop(self):
        tracer = Tracer()
        tracer.finish(None)
        tracer.finish(None, "error")
        assert len(tracer.store) == 0

    def test_slow_threshold_alone_enables(self):
        tracer = Tracer(sample_rate=0.0, slow_trace_ms=100.0)
        assert tracer.enabled
        assert tracer.begin("op", "select") is not None

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


class TestHeadSampling:
    def test_sampling_is_seeded_and_deterministic(self):
        decisions = []
        for _ in range(2):
            tracer = Tracer(sample_rate=0.5, seed=42)
            decisions.append(
                [tracer.begin("op", "select").sampled for _ in range(64)]
            )
        assert decisions[0] == decisions[1]
        # A 0.5 rate over 64 coins lands strictly between the extremes.
        assert 0 < sum(decisions[0]) < 64

    def test_rate_one_samples_everything(self):
        tracer = Tracer(sample_rate=1.0, seed=7)
        assert all(tracer.begin("op", "q").sampled for _ in range(16))

    def test_sampled_counter_and_dropped_counter(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, sample_rate=0.0, slow_trace_ms=1e9)
        trace = tracer.begin("op", "select")
        assert trace is not None and not trace.sampled
        tracer.finish(trace)  # fast + ok -> dropped
        assert registry.counter_value("tracing.dropped") == 1
        assert registry.counter_value("tracing.sampled") == 0
        assert len(tracer.store) == 0

    def test_trace_ids_embed_the_seed_and_count_up(self):
        tracer = Tracer(sample_rate=1.0, seed=0xBEEF)
        first = tracer.begin("op", "q").trace_id
        second = tracer.begin("op", "q").trace_id
        assert first == "tbeef-00000001"
        assert second == "tbeef-00000002"


class TestTailCapture:
    def test_slow_trace_retained_despite_head_drop(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, sample_rate=0.0, slow_trace_ms=0.0)
        trace = tracer.begin("op", "select")
        tracer.finish(trace)  # every duration >= 0.0 ms is "slow"
        assert tracer.store.get(trace.trace_id) is trace
        assert registry.counter_value("tracing.slow_captured") == 1

    @pytest.mark.parametrize("outcome", sorted(TAIL_OUTCOMES))
    def test_tail_outcomes_always_retained(self, outcome):
        tracer = Tracer(sample_rate=0.0, slow_trace_ms=1e9)
        trace = tracer.begin("op", "select")
        tracer.finish(trace, outcome)
        assert tracer.store.get(trace.trace_id) is trace
        assert trace.outcome == outcome

    def test_ok_fast_unsampled_is_dropped(self):
        tracer = Tracer(sample_rate=0.0, slow_trace_ms=1e9)
        trace = tracer.begin("op", "select")
        tracer.finish(trace, "ok")
        assert tracer.store.get(trace.trace_id) is None

    def test_slow_query_log_line_is_structured_json(self, caplog):
        tracer = Tracer(sample_rate=1.0, slow_trace_ms=0.0)
        trace = tracer.begin("POST /query", "query")
        trace.annotate(
            query="select x from x in extent(T0)",
            strategy="asr:full:1",
            cached=False,
            epoch=3,
            pages=17,
        )
        trace.add_phase("query.evaluate", "execute", 1.25)
        with caplog.at_level(logging.INFO, logger="repro.slowquery"):
            tracer.finish(trace)
        records = [r for r in caplog.records if r.name == "repro.slowquery"]
        assert len(records) == 1
        line = json.loads(records[0].getMessage())
        assert line["event"] == "slow_query"
        assert line["trace_id"] == trace.trace_id
        assert line["query"] == "select x from x in extent(T0)"
        assert line["strategy"] == "asr:full:1"
        assert line["cached"] is False
        assert line["epoch"] == 3
        assert line["pages"] == 17
        assert line["phases"]["execute"] == 1.25

    def test_non_query_slow_traces_do_not_log(self, caplog):
        tracer = Tracer(sample_rate=1.0, slow_trace_ms=0.0)
        trace = tracer.begin("select-eq", "select")  # no query annotation
        with caplog.at_level(logging.INFO, logger="repro.slowquery"):
            tracer.finish(trace)
        assert not [r for r in caplog.records if r.name == "repro.slowquery"]


class TestTraceRecording:
    def test_phases_roll_up_and_sum(self):
        trace = Trace("t-1", "op", "select", sampled=True)
        trace.add_phase("serve.queue", "queue", 2.0)
        trace.add_phase("concurrency.lock.read", "lock.read", 1.0)
        trace.add_phase("concurrency.lock.read", "lock.read", 0.5)
        assert trace.phases == {"queue": 2.0, "lock.read": 1.5}
        assert trace.phase_total_ms == 3.5

    def test_span_nesting_builds_a_parent_tree(self):
        trace = Trace("t-1", "op", "select", sampled=True)
        with trace.span("outer", "execute"):
            with trace.span("inner.annotation"):
                pass
        outer, inner = trace.spans
        assert outer["parent"] is None
        assert inner["parent"] == 0
        assert outer["duration_ms"] >= inner["duration_ms"]

    def test_unphased_spans_never_touch_the_rollup(self):
        trace = Trace("t-1", "op", "select", sampled=True)
        with trace.span("query.evaluate", "execute"):
            with trace.span("query.supported.bw") as row:  # measured, no phase
                record_pages(row, AccessStats(3, 1, {"btree_leaf": 3}), asr="full:1")
        assert set(trace.phases) == {"execute"}
        assert (row["page_reads"], row["page_writes"], row["asr"]) == (3, 1, "full:1")
        assert trace.spans[1] is row

    def test_every_declared_phase_is_recordable(self):
        trace = Trace("t-1", "op", "select", sampled=True)
        for phase in PHASES:
            trace.add_phase(f"serve.{phase}", phase, 1.0)
        assert set(trace.phases) == set(PHASES)

    def test_mark_ok_never_overwrites_a_failure(self):
        trace = Trace("t-1", "op", "select", sampled=True)
        trace.mark("degraded")
        trace.mark("ok")
        assert trace.outcome == "degraded"

    def test_summary_reports_unattributed_remainder(self):
        trace = Trace("t-1", "op", "select", sampled=True)
        trace.add_phase("query.evaluate", "execute", 1.0)
        trace.finish()
        summary = trace.summary()
        assert summary["unattributed_ms"] == pytest.approx(
            max(0.0, summary["duration_ms"] - 1.0), abs=1e-3
        )

    def test_backdated_origin_extends_the_duration(self):
        import time

        origin = time.perf_counter() - 0.05  # admitted 50 ms ago
        trace = Trace("t-1", "op", "select", sampled=True, started=origin)
        assert trace.finish() >= 50.0

    def test_as_dict_is_json_able(self):
        trace = Trace("t-1", "op", "select", sampled=True)
        with trace.span("execute", "execute"):
            pass
        trace.annotate(strategy="asr:full:1")
        trace.finish("ok")
        json.dumps(trace.as_dict())


class TestThreadLocalActivation:
    def test_activate_and_read_back(self):
        trace = Trace("t-1", "op", "select", sampled=True)
        assert current_trace() is None
        with activate(trace):
            assert current_trace() is trace
        assert current_trace() is None

    def test_activate_none_is_harmless(self):
        with activate(None):
            assert current_trace() is None

    def test_activation_nests(self):
        outer = Trace("t-1", "op", "select", sampled=True)
        inner = Trace("t-2", "op", "select", sampled=True)
        with activate(outer):
            with activate(inner):
                assert current_trace() is inner
            assert current_trace() is outer

    def test_activation_is_per_thread(self):
        import threading

        trace = Trace("t-1", "op", "select", sampled=True)
        seen = []
        with activate(trace):
            thread = threading.Thread(target=lambda: seen.append(current_trace()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_maybe_span_accepts_none(self):
        with maybe_span(None, "anything", "execute"):
            pass  # must not raise


class TestTraceStore:
    def _trace(self, trace_id):
        return Trace(trace_id, "op", "select", sampled=True)

    def test_put_get_roundtrip(self):
        store = TraceStore(capacity=4)
        trace = self._trace("t-1")
        store.put(trace)
        assert store.get("t-1") is trace
        assert store.get("t-404") is None

    def test_ring_evicts_oldest_and_prunes_the_index(self):
        store = TraceStore(capacity=3)
        traces = [self._trace(f"t-{i}") for i in range(5)]
        for trace in traces:
            store.put(trace)
        assert len(store) == 3
        assert store.get("t-0") is None  # evicted, not resurrectable
        assert store.get("t-1") is None
        assert [t.trace_id for t in store.recent()] == ["t-4", "t-3", "t-2"]

    def test_recent_is_newest_first_and_respects_limit(self):
        store = TraceStore(capacity=8)
        for i in range(5):
            store.put(self._trace(f"t-{i}"))
        assert [t.trace_id for t in store.recent(2)] == ["t-4", "t-3"]
        assert store.recent(0) == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class TestDescribe:
    def test_headline_state(self):
        tracer = Tracer(sample_rate=0.25, slow_trace_ms=50.0, capacity=16)
        described = tracer.describe()
        assert described == {
            "enabled": True,
            "sample_rate": 0.25,
            "slow_trace_ms": 50.0,
            "capacity": 16,
            "retained": 0,
        }
