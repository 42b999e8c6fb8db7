"""The query service: plan caching by shape and epoch, invalidation, error counts."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asr import ASRManager, Decomposition, Extension
from repro.context import ExecutionContext
from repro.errors import ParseError, QueryError
from repro.gom import PathExpression
from repro.query import Planner, QueryService, SelectExecutor
from repro.query.parser import parse_select
from repro.query.validate import validate_select
from repro.telemetry import MetricsRegistry
from repro.workload.opstream import select_stream

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


def rebuild(manager) -> None:
    """Re-materialize every ASR under its own design (a new epoch each)."""
    for asr in list(manager.asrs):
        manager.rematerialize(asr, asr.extension, asr.decomposition)


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

    def test_rematerialize_invalidates(self, service_world):
        _db, manager, _asr, service, registry, _objects = service_world
        service.execute(QUERY)
        assert service.execute(QUERY).cached is True
        before = manager.epoch
        rebuild(manager)
        assert manager.epoch > before
        outcome = service.execute(QUERY)  # a counted miss that re-plans
        assert outcome.cached is False
        assert outcome.epoch == manager.epoch
        assert registry.counter_value("query.cache.misses") >= 2

    def test_an_eager_update_keeps_the_cached_plan(self, service_world):
        db, manager, asr, service, _registry, objects = service_world
        warm = service.execute(QUERY)
        rows = asr.tuple_count
        # The 560 SEC gains pepper: Auto and Truck now reach "Pepper".
        db.set_insert(objects["parts_sec"], objects["pepper"])
        assert asr.tuple_count != rows  # maintained eagerly
        pepper = QUERY.replace('"Door"', '"Pepper"')
        outcome = service.execute(pepper)
        # Maintenance changes no plan: the shape stays cached …
        assert outcome.cached is True
        assert outcome.epoch == warm.epoch == manager.epoch
        assert outcome.report.strategy.startswith("asr-backward")
        # … and the answer sees the update.
        fresh = SelectExecutor(db, None).run(pepper)
        assert fresh.strategy == "nested-loop traversal"
        assert sorted(outcome.report.rows) == sorted(fresh.rows)
        assert sorted(fresh.rows) == [("Auto",), ("Truck",)]

    def test_quarantine_and_recovery_both_invalidate(self, company_world):
        from repro.errors import SimulatedCrash
        from repro.faults import FaultInjector

        db, path, objects = company_world
        registry = MetricsRegistry()
        injector = FaultInjector()
        manager = ASRManager(db, fault_injector=injector)
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


def cold(service, text):
    """``text`` through a fresh parse → validate → compile → run, or its error."""
    executor = SelectExecutor(service.db, Planner(service.manager))
    try:
        statement = parse_select(" ".join(text.split()))
        validate_select(statement, service.db)
        report = executor.run_compiled(executor.compile(statement))
    except (ParseError, QueryError) as error:
        return type(error), str(error)
    return typed(statement), report.rows, report.strategy, report.total_pages


def served(service, text):
    try:
        outcome = service.execute(text)
    except (ParseError, QueryError) as error:
        return type(error), str(error)
    report = outcome.report
    return typed(outcome.statement), report.rows, report.strategy, report.total_pages


def typed(statement):
    return statement, [type(literal.value) for literal in statement.literals()]


class TestShapeCaching:
    def test_a_literal_never_sent_binds_into_its_shape(self, service_world):
        _db, _manager, _asr, service, registry, _objects = service_world
        context = ExecutionContext(metrics=registry)
        part = 'select p.Name from p in extent(BasePart) where p.Name = "{}"'
        first = service.execute(part.format("Door"), context=context)
        assert first.cached is False and first.report.rows == [("Door",)]
        plans = planned(registry)
        outcome = service.execute(part.format("Pepper"), context=context)
        assert outcome.cached is True
        assert planned(registry) == plans  # bound, not planned
        assert outcome.report.rows == [("Pepper",)]
        assert outcome.statement == parse_select(part.format("Pepper"))
        assert served(service, part.format("Nut")) == cold(service, part.format("Nut"))
        assert len(service.cache) == 1

    def test_a_kind_is_part_of_the_shape(self, service_world):
        _db, _manager, _asr, service, _registry, _objects = service_world
        price = "select p.Name from p in extent(BasePart) where p.Price = {}"
        assert service.execute(price.format("12")).cached is False
        assert service.execute(price.format("1205.50")).cached is False
        assert service.execute(price.format("0.12")).cached is True
        with pytest.raises(QueryError, match="is not a DECIMAL"):
            service.execute(price.format('"12"'))
        assert len(service.cache) == 2

    def test_an_unreadable_literal_of_a_cached_shape_is_a_parse_error(
        self, service_world
    ):
        _db, _manager, _asr, service, registry, _objects = service_world
        price = "select p.Name from p in extent(BasePart) where p.Price >= {}"
        service.execute(price.format("5"))
        overlong = price.format("9" * 5000)
        assert served(service, overlong) == cold(service, overlong)
        with pytest.raises(ParseError, match="5000 digits"):
            service.execute(overlong)
        assert registry.counter_value("query.errors", kind="parse") == 2

    def test_a_shape_that_keeps_a_literal_is_not_cached(self, service_world):
        _db, _manager, _asr, service, _registry, _objects = service_world
        # The -1 touches ``and``: it stays in the shape, so a hit could
        # not bind every literal of the statement.
        text = (
            "select p.Name from p in extent(BasePart) "
            "where p.Price >= 5and-1 < p.Price"
        )
        for _ in range(2):
            assert service.execute(text).cached is False
        assert len(service.cache) == 0
        assert served(service, text) == cold(service, text)

    def test_a_degraded_plan_is_not_cached(self, company_world):
        db, path, _objects = company_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.none(path.m))
        service = QueryService(db, Planner(manager), cache_size=8)
        with manager.lock.write():
            manager._mark_quarantined(asr)
        for literal in ('"Door"', '"Pepper"'):
            outcome = service.execute(QUERY.replace('"Door"', literal))
            assert outcome.cached is False
            assert outcome.report.restriction == "quarantined"
        assert len(service.cache) == 0


#: Literals of every kind, ones that match stored values, and ones the
#: parser or the validator refuses.
_LITERALS = st.one_of(
    st.sampled_from(
        ['"Door"', '"Pepper"', '"Auto"', '"Truck"', '"x"', '""', '"a \\"b"', "12"]
    ),
    st.sampled_from(["0", "-3", "1205.50", "0.12", "9" * 5000, "-0.0", "7.5"]),
    st.integers(-(10**4), 10**4).map(str),
)

#: Statements over the company world: lowered equality and ranges (with
#: the literal on either side), a residual comparison, a two-literal
#: predicate, and a literal that touches ``and``.
_TEMPLATES = [
    "select d.Name from d in Mercedes where d.Manufactures.Composition.Name = {}",
    "select d.Name from d in Mercedes where {} = d.Manufactures.Composition.Name",
    "select p.Name from p in extent(BasePart) where p.Price >= {}",
    "select p from p in extent(BasePart) where {} > p.Price",
    "select p, p.Name from p in extent(BasePart) where p.Price < {} and p.Name = {}",
    "select d from d in Mercedes where d.Name = {} and {} = {}",
    "select x.Name from x in extent(Product) where x.Composition.Price >= {}and-1 < 2",
]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.sampled_from(_TEMPLATES),
    st.lists(_LITERALS, min_size=3, max_size=3),
    st.lists(_LITERALS, min_size=3, max_size=3),
)
def test_a_text_served_after_its_shape_is_its_cold_run(
    service_world, template, first, second
):
    """Same statement, rows, strategy, pages and error as a cold run."""
    db, manager, _asr, _service, _registry, _objects = service_world
    service = QueryService(db, Planner(manager), cache_size=8)
    representative, text = template.format(*first), template.format(*second)
    served(service, representative)
    assert served(service, text) == cold(service, text)


class TestSelectBlockReplay:
    """The ``select-http`` pattern: hot and cold literals over three shapes."""

    def test_one_miss_per_shape_per_epoch(self, small_chain):
        db = small_chain.db
        manager = ASRManager(db)
        payload = PathExpression(
            db.schema, "T0", ("A",) * small_chain.n + ("Payload",)
        )
        manager.create(payload, Extension.FULL)
        registry = MetricsRegistry()
        service = QueryService(db, Planner(manager), cache_size=128, registry=registry)
        block = [
            op.text
            for op in select_stream(small_chain, count=300, seed=3, query_fraction=1.0)
        ]
        shapes = {text.rsplit(" ", 1)[0] for text in block}
        assert len(shapes) == 3 and len(set(block)) > 128
        for epoch in (1, 2):
            for text in block:
                service.execute(text)
            assert registry.counter_value("query.cache.misses") == 3 * epoch
            assert registry.counter_value("query.cache.hits") == (len(block) - 3) * epoch
            rebuild(manager)  # a new epoch
        for text in block[:20]:
            assert served(service, text) == cold(service, text)
