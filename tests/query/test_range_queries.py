"""Value-range backward queries over the value-clustered trees."""

import random

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.errors import QueryError
from repro.gom import ObjectBase, PathExpression, Schema
from repro.query import QueryEvaluator, ValueRangeQuery


@pytest.fixture()
def priced_world():
    schema = Schema()
    schema.define_tuple("BasePart", {"Name": "STRING", "Price": "DECIMAL"})
    schema.define_set("BasePartSET", "BasePart")
    schema.define_tuple("Product", {"Name": "STRING", "Composition": "BasePartSET"})
    schema.validate()
    db = ObjectBase(schema)
    rng = random.Random(6)
    parts = [db.new("BasePart", Name=f"P{i}", Price=float(i * 10)) for i in range(25)]
    products = []
    for i in range(10):
        members = rng.sample(parts, 3)
        collection = db.new_set("BasePartSET", members)
        products.append(db.new("Product", Name=f"Pr{i}", Composition=collection))
    path = PathExpression.parse(schema, "Product.Composition.Price")
    return db, path, parts, products


class TestValidation:
    def test_needs_bounds(self, priced_world):
        db, path, *_ = priced_world
        with pytest.raises(QueryError):
            ValueRangeQuery(path, 0, path.n)

    def test_must_end_at_terminal(self, priced_world):
        db, path, *_ = priced_world
        with pytest.raises(QueryError, match="terminal"):
            ValueRangeQuery(path, 0, 1, lo=0.0, hi=1.0)

    def test_terminal_must_be_atomic(self, priced_world):
        db, path, *_ = priced_world
        object_path = PathExpression.parse(db.schema, "Product.Composition")
        with pytest.raises(QueryError, match="atomic"):
            ValueRangeQuery(object_path, 0, 1, lo=0.0, hi=1.0)


class TestParity:
    @pytest.mark.parametrize("extension", [Extension.CANONICAL, Extension.FULL,
                                           Extension.LEFT, Extension.RIGHT])
    @pytest.mark.parametrize("borders", [(0, 1, 2, 3), (0, 3), (0, 2, 3)])
    def test_supported_matches_unsupported(self, priced_world, extension, borders):
        db, path, _parts, _products = priced_world
        manager = ASRManager(db)
        asr = manager.create(path, extension, Decomposition(borders))
        evaluator = QueryEvaluator(db)
        for lo, hi in [(0.0, 60.0), (100.0, 180.0), (55.0, 56.0), (500.0, 900.0)]:
            query = ValueRangeQuery(path, 0, path.n, lo=lo, hi=hi)
            assert (
                evaluator.evaluate_supported(query, asr).cells
                == evaluator.evaluate_unsupported(query).cells
            ), (extension, borders, lo, hi)

    def test_bounds_semantics_half_open(self, priced_world):
        db, path, parts, _products = priced_world
        evaluator = QueryEvaluator(db)
        exact = ValueRangeQuery(path, 0, path.n, lo=100.0, hi=100.0)
        assert evaluator.evaluate_unsupported(exact).cells == set()
        touching = ValueRangeQuery(path, 0, path.n, lo=100.0, hi=100.1)
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        assert evaluator.evaluate_supported(
            touching, asr
        ).cells == evaluator.evaluate_unsupported(touching).cells

    def test_string_ranges(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        evaluator = QueryEvaluator(db)
        query = ValueRangeQuery(path, 0, path.n, lo="D", hi="E")
        result = evaluator.evaluate_supported(query, asr)
        assert result.cells == {o["auto"], o["truck"]}  # reach "Door"
        assert result.cells == evaluator.evaluate_unsupported(query).cells

    def test_stays_correct_under_updates(self, priced_world):
        db, path, parts, products = priced_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        evaluator = QueryEvaluator(db)
        db.set_attr(parts[0], "Price", 999.0)
        collection = db.attr(products[0], "Composition")
        db.set_insert(collection, parts[0])
        query = ValueRangeQuery(path, 0, path.n, lo=990.0, hi=1000.0)
        supported = evaluator.evaluate_supported(query, asr)
        assert products[0] in supported.cells
        assert supported.cells == evaluator.evaluate_unsupported(query).cells

    def test_dispatch_through_evaluate(self, priced_world):
        db, path, *_ = priced_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        evaluator = QueryEvaluator(db)
        query = ValueRangeQuery(path, 0, path.n, lo=0.0, hi=50.0)
        result = evaluator.evaluate(query, asr)
        assert result.strategy.startswith("asr:full")

    def test_range_scan_cheaper_than_exhaustive(self, priced_world):
        from repro.storage import ClusteredObjectStore

        db, path, *_ = priced_world
        store = ClusteredObjectStore({"Product": 300, "BasePart": 200})
        store.attach(db)
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.none(path.m))
        evaluator = QueryEvaluator(db, store)
        query = ValueRangeQuery(path, 0, path.n, lo=0.0, hi=20.0)
        supported = evaluator.evaluate_supported(query, asr)
        unsupported = evaluator.evaluate_unsupported(query)
        assert supported.cells == unsupported.cells
        assert supported.page_reads <= unsupported.page_reads

    #: borders -> supported total_pages per RANGES entry, and the
    #: exhaustive scan's, as charged before ``_supported_range`` was
    #: folded into the backward stitch (PR 17).
    RANGES = [(0.0, 60.0), (100.0, 180.0), (55.0, 56.0), (500.0, 900.0)]
    PINNED_PAGES = {
        (0, 1, 2, 3): [3, 3, 1, 1],
        (0, 3): [1, 1, 1, 1],
        (0, 2, 3): [2, 2, 1, 1],
        "unsupported": [3, 3, 3, 3],
    }

    def test_page_totals_pinned(self, priced_world):
        from repro.storage import ClusteredObjectStore

        db, path, *_ = priced_world
        store = ClusteredObjectStore({"Product": 300, "BasePart": 200})
        store.attach(db)
        manager = ASRManager(db)
        evaluator = QueryEvaluator(db, store)
        queries = [ValueRangeQuery(path, 0, path.n, lo=lo, hi=hi) for lo, hi in self.RANGES]
        for borders, pinned in self.PINNED_PAGES.items():
            if borders == "unsupported":
                pages = [evaluator.evaluate_unsupported(q).total_pages for q in queries]
            else:
                asr = manager.create(path, Extension.FULL, Decomposition(borders))
                pages = [evaluator.evaluate_supported(q, asr).total_pages for q in queries]
            assert pages == pinned, borders
