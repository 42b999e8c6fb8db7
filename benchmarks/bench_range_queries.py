"""Value-range queries: measured simulator behaviour vs the cost extension.

Sweeps range selectivity on a generated world with numeric terminals and
compares (a) measured supported page reads against the unsupported scan
and (b) the analytical ``qsup_range`` curve's monotonicity and crossing
behaviour.  This is an extension benchmark (the paper prices only point
lookups).
"""

import random

from repro.asr import ASRManager, Decomposition, Extension
from repro.bench.render import format_table
from repro.costmodel import ApplicationProfile, QueryCostModel
from repro.gom import ObjectBase, PathExpression, Schema
from repro.query import QueryEvaluator, ValueRangeQuery
from repro.storage import ClusteredObjectStore


def build_catalog(parts_count=400, products_count=150, seed=67):
    schema = Schema()
    schema.define_tuple("BasePart", {"Price": "DECIMAL"})
    schema.define_set("BasePartSET", "BasePart")
    schema.define_tuple("Product", {"Name": "STRING", "Composition": "BasePartSET"})
    schema.validate()
    db = ObjectBase(schema)
    rng = random.Random(seed)
    parts = [db.new("BasePart", Price=float(i)) for i in range(parts_count)]
    for i in range(products_count):
        members = rng.sample(parts, 3)
        db.new(
            "Product",
            Name=f"Pr{i}",
            Composition=db.new_set("BasePartSET", members),
        )
    store = ClusteredObjectStore({"Product": 300, "BasePart": 100})
    store.attach(db)
    path = PathExpression.parse(schema, "Product.Composition.Price")
    return db, path, store, parts_count


def test_range_selectivity_sweep(record):
    db, path, store, parts_count = build_catalog()
    manager = ASRManager(db)
    asr = manager.create(path, Extension.FULL, Decomposition.none(path.m))
    evaluator = QueryEvaluator(db, store)

    rows = []
    for fraction in (0.01, 0.05, 0.2, 0.5, 1.0):
        query = ValueRangeQuery(path, 0, path.n, lo=0.0, hi=fraction * parts_count)
        supported = evaluator.evaluate_supported(query, asr)
        unsupported = evaluator.evaluate_unsupported(query)
        assert supported.cells == unsupported.cells
        rows.append(
            [fraction, len(supported.cells), supported.page_reads, unsupported.page_reads]
        )
    record(
        "range_selectivity",
        format_table(
            ["selectivity", "matches", "supported pages", "unsupported pages"],
            rows,
            "Range queries — measured page reads vs selectivity (full/no-dec)",
        ),
    )
    supported_pages = [row[2] for row in rows]
    assert supported_pages == sorted(supported_pages)
    # Selective ranges are far cheaper than the exhaustive scan.
    assert rows[0][2] < rows[0][3] / 3


def test_range_cost_model_curve(record):
    profile = ApplicationProfile(
        c=(150, 450, 400),
        d=(150, 450),
        fan=(3, 1),
        size=(300, 100, 16),
    )
    model = QueryCostModel(profile)

    rows = [
        (
            s,
            model.qsup_range(Extension.FULL, 0, s, Decomposition.none(2)),
            model.qnas(0, 2, "bw"),
        )
        for s in (0.01, 0.05, 0.2, 0.5, 1.0)
    ]
    record(
        "range_cost_curve",
        format_table(
            ["selectivity", "model supported", "model unsupported"],
            rows,
            "Range queries — analytical qsup_range vs the exhaustive scan",
        ),
    )
    for _s, supported, unsupported in rows[:2]:
        assert supported < unsupported
