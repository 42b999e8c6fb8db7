"""Comparison predicates in the surface language and their index fast path."""

import random

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.costmodel import MeasuredCosts
from repro.errors import ParseError
from repro.gom import ObjectBase, PathExpression, Schema
from repro.query import (
    ForwardQuery,
    Planner,
    QueryEvaluator,
    SelectExecutor,
    ValueRangeQuery,
    parse_select,
)

from tests.query.test_planner_product import World


@pytest.fixture()
def catalog():
    schema = Schema()
    schema.define_tuple("BasePart", {"Name": "STRING", "Price": "DECIMAL"})
    schema.define_set("BasePartSET", "BasePart")
    schema.define_tuple("Product", {"Name": "STRING", "Composition": "BasePartSET"})
    schema.define_set("ProdSET", "Product")
    schema.validate()
    db = ObjectBase(schema)
    rng = random.Random(3)
    parts = [db.new("BasePart", Name=f"P{i:02d}", Price=float(i * 5)) for i in range(20)]
    products = [
        db.new(
            "Product",
            Name=f"Pr{i}",
            Composition=db.new_set("BasePartSET", rng.sample(parts, 3)),
        )
        for i in range(8)
    ]
    # Two dangling paths — NULL terminals in the full extension, and a
    # NULL satisfies no comparison: a product composed of nothing, and
    # one with a part that has no price beside the dearest part.
    products.append(
        db.new("Product", Name="Hollow", Composition=db.new_set("BasePartSET", []))
    )
    unpriced = db.new("BasePart", Name="P-unpriced")
    products.append(
        db.new(
            "Product",
            Name="Unpriced",
            Composition=db.new_set("BasePartSET", [unpriced, parts[-1]]),
        )
    )
    db.set_var("Catalog", db.new_set("ProdSET", products), "ProdSET")
    path = PathExpression.parse(schema, "Product.Composition.Price")
    # Catalog objects are large, so a traversal reads more pages than
    # the ASR's range scans and the price list takes the index.
    manager = ASRManager(db, costs=MeasuredCosts(db, default_size=1000))
    manager.create(path, Extension.FULL, Decomposition.binary(path.m))
    fast = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
    slow = SelectExecutor(db)
    return db, fast, slow


class TestParserComparisons:
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_operators_parse(self, op):
        statement = parse_select(
            f"select p from p in Catalog where p.Price {op} 20"
        )
        assert statement.predicates[0].op == op

    def test_invalid_operator(self):
        with pytest.raises(ParseError):
            parse_select("select p from p in Catalog where p.Price != 20")


class TestComparisonSemantics:
    QUERIES = [
        "select p.Name from p in Catalog where p.Composition.Price < 20",
        "select p.Name from p in Catalog where p.Composition.Price <= 20",
        "select p.Name from p in Catalog where p.Composition.Price > 80",
        "select p.Name from p in Catalog where p.Composition.Price >= 80",
        "select p.Name from p in Catalog where 20 > p.Composition.Price",
        "select p.Name from p in Catalog where 80 <= p.Composition.Price",
        'select p.Name from p in Catalog where p.Name >= "Pr5"',
        "select p.Name from p in Catalog "
        "where p.Composition.Price >= 20 and p.Composition.Price < 60",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_fast_matches_naive(self, catalog, query):
        _db, fast, slow = catalog
        assert sorted(fast.run(query).rows) == sorted(slow.run(query).rows)

    def test_indexable_forms_use_asr(self, catalog):
        _db, fast, _slow = catalog
        report = fast.run(
            "select p.Name from p in Catalog where p.Composition.Price < 20"
        )
        assert report.strategy.startswith("asr-backward")
        report = fast.run(
            "select p.Name from p in Catalog where p.Composition.Price >= 80"
        )
        assert report.strategy.startswith("asr-backward")

    def test_non_indexable_forms_fall_back(self, catalog):
        _db, fast, _slow = catalog
        # '>' and '<=' have inclusive/exclusive bounds the half-open range
        # scan cannot express exactly: they run as nested-loop filters.
        report = fast.run(
            "select p.Name from p in Catalog where p.Composition.Price > 80"
        )
        assert report.strategy == "nested-loop traversal"

    def test_existential_semantics(self, catalog):
        """A product matches when ANY composed part satisfies the bound."""
        db, fast, slow = catalog
        rows = slow.run(
            "select p.Name from p in Catalog where p.Composition.Price < 10"
        ).rows
        # Every reported product really contains a part cheaper than 10.
        for (name,) in rows:
            (product,) = [
                oid
                for oid in db.extent("Product")
                if db.attr(oid, "Name") == name
            ]
            members = db.members(db.attr(product, "Composition"))
            assert any(db.attr(part, "Price") < 10 for part in members)

    def test_combined_with_equality(self, catalog):
        _db, fast, slow = catalog
        query = (
            "select p.Name from p in Catalog "
            'where p.Composition.Price < 50 and p.Name = "Pr0"'
        )
        assert sorted(fast.run(query).rows) == sorted(slow.run(query).rows)


def test_two_bounds_on_a_set_valued_path_do_not_fold_into_one_range():
    """``>= lo and < hi`` is two existential predicates, not one interval.

    On a set-valued path each bound may be witnessed by a *different*
    reachable value, so the two half-open scans intersected are the
    correct plan and ``ValueRangeQuery(lo, hi)`` — one value inside the
    interval — is a different, stricter question.  Pinned on the
    planner-product world so a future fold fails here instead of
    shipping.
    """
    world = World()
    lo, hi = 131577, 142921
    text = (
        "select x from x in extent(T0) "
        f"where x.A.A.A.Payload >= {lo} and x.A.A.A.Payload < {hi}"
    )
    report = world.executor.run(text)
    assert report.strategy == "asr-backward via full"
    answer = {row[0] for row in report.rows}
    assert answer == {row[0] for row in SelectExecutor(world.db).run(text).rows}
    assert len(answer) == 17
    path = world.path
    folded = world.planner.execute(
        ValueRangeQuery(path, 0, path.n, lo=lo, hi=hi), world.evaluator
    ).cells
    assert len(folded) == 2 and folded < answer
    # The witness: an origin reaching one value at or above `lo` and
    # another below `hi`, but none inside [lo, hi).
    witness = min(answer - folded)
    reached = world.evaluator.evaluate_unsupported(
        ForwardQuery(path, 0, path.n, start=witness)
    ).cells
    assert any(value >= lo for value in reached)
    assert any(value < hi for value in reached)
    assert not any(lo <= value < hi for value in reached)
