"""The query service: plan caching by epoch, invalidation, error counts."""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.context import ExecutionContext
from repro.errors import ParseError, QueryError
from repro.query import Planner, QueryService
from repro.telemetry import MetricsRegistry

QUERY = (
    'select d.Name from d in Mercedes '
    'where d.Manufactures.Composition.Name = "Door"'
)


@pytest.fixture()
def service_world(company_world):
    db, path, objects = company_world
    registry = MetricsRegistry()
    manager = ASRManager(db)
    asr = manager.create(path, Extension.FULL, Decomposition.none(path.m))
    # Undecomposed, the ASR answers with one lookup, which the price list
    # ranks below the traversal (binary partitions would not be).
    service = QueryService(db, Planner(manager), cache_size=8, registry=registry)
    return db, manager, asr, service, registry, objects


def planned(registry) -> float:
    return registry.counter_value("ops", op="plan.supported") + registry.counter_value(
        "ops", op="plan.unsupported"
    )


class TestExecution:
    def test_end_to_end(self, service_world):
        _db, _manager, _asr, service, _registry, _objects = service_world
        outcome = service.execute(QUERY)
        assert sorted(outcome.report.rows) == [("Auto",), ("Truck",)]
        assert outcome.report.strategy.startswith("asr-backward")
        assert outcome.cached is False

    def test_payload_shape(self, service_world):
        _db, _manager, _asr, service, _registry, objects = service_world
        outcome = service.execute(
            'select d from d in Mercedes where d.Name = "Auto"'
        )
        payload = outcome.payload()
        assert payload["rows"] == [[repr(objects["auto"])]]
        assert payload["row_count"] == 1
        assert payload["cached"] is False
        assert payload["total_pages"] == (
            payload["page_reads"] + payload["page_writes"]
        )
        assert isinstance(payload["epoch"], int)


class TestPlanCaching:
    def test_second_identical_call_skips_planning(self, service_world):
        _db, _manager, _asr, service, registry, _objects = service_world
        context = ExecutionContext(metrics=registry)
        first = service.execute(QUERY, context=context)
        assert first.cached is False
        plans_after_first = planned(registry)
        assert plans_after_first > 0  # compile really planned
        second = service.execute(QUERY, context=context)
        assert second.cached is True
        assert sorted(second.report.rows) == sorted(first.report.rows)
        # The whole point: a hit does no planning work at all.
        assert planned(registry) == plans_after_first
        assert registry.counter_value("query.cache.hits") == 1

    def test_whitespace_variants_share_one_plan(self, service_world):
        _db, _manager, _asr, service, registry, _objects = service_world
        service.execute(QUERY)
        variant = QUERY.replace(" from ", "\n  from   ")
        assert service.execute(variant).cached is True

    def test_suspend_rebuild_invalidates(self, service_world):
        _db, manager, _asr, service, registry, _objects = service_world
        service.execute(QUERY)
        assert service.execute(QUERY).cached is True
        before = manager.epoch
        with manager.suspended():  # exits through a full rebuild
            pass
        assert manager.epoch > before
        outcome = service.execute(QUERY)  # a counted miss that re-plans
        assert outcome.cached is False
        assert outcome.epoch == manager.epoch
        assert registry.counter_value("query.cache.misses") >= 2

    def test_quarantine_and_recovery_both_invalidate(self, company_world):
        from repro.errors import SimulatedCrash
        from repro.faults import FaultInjector

        db, path, objects = company_world
        registry = MetricsRegistry()
        injector = FaultInjector()
        manager = ASRManager(db, fault_injector=injector, auto_recover=False)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        service = QueryService(db, Planner(manager), cache_size=8, registry=registry)
        healthy = service.execute(QUERY)
        # Tear one maintenance flush so the ASR quarantines.
        injector.crash_at("asr.flush.mid-delta", on_hit=1)
        with pytest.raises(SimulatedCrash):
            with manager.batch():
                db.set_insert(objects["parts_sec"], objects["pepper"])
        degraded = service.execute(QUERY)
        assert degraded.cached is False
        assert degraded.epoch > healthy.epoch
        assert "degraded" in degraded.report.strategy
        assert sorted(degraded.report.rows) == sorted(healthy.report.rows)
        assert manager.recover() == 1
        recovered = service.execute(QUERY)
        assert recovered.cached is False
        assert recovered.epoch > degraded.epoch
        assert recovered.report.strategy.startswith("asr-backward")
        # And the healthy plan is a hit again at the new epoch.
        assert service.execute(QUERY).cached is True

    def test_latency_histogram_observed(self, service_world):
        _db, _manager, _asr, service, registry, _objects = service_world
        service.execute(QUERY)
        snapshot = registry.snapshot()
        assert any(
            name.startswith("query.latency_ms") for name in snapshot["histograms"]
        )


class TestErrorCounting:
    def test_parse_error_counted(self, service_world):
        _db, _manager, _asr, service, registry, _objects = service_world
        with pytest.raises(ParseError):
            service.execute('select d from d in Mercedes where d.Name = "oops')
        assert registry.counter_value("query.errors", kind="parse") == 1

    def test_validate_error_counted(self, service_world):
        _db, _manager, _asr, service, registry, _objects = service_world
        with pytest.raises(QueryError):
            service.execute("select d.Ghost from d in Mercedes")
        assert registry.counter_value("query.errors", kind="validate") == 1

    def test_bad_texts_are_not_cached(self, service_world):
        _db, _manager, _asr, service, registry, _objects = service_world
        for _ in range(2):
            with pytest.raises(QueryError):
                service.execute("select d.Ghost from d in Mercedes")
        # Both attempts miss: failures never enter the cache.
        assert registry.counter_value("query.cache.hits") == 0
        assert len(service.cache) == 0
