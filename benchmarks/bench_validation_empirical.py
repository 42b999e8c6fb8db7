"""Empirical validation: storage simulator vs analytical cost model.

The paper's evaluation is purely analytical.  These benchmarks generate
*live* chain object bases, run the same queries through the page-counting
storage simulator, and check that the analytical model's predictions
match the measured numbers — cardinalities within a relative band,
query page counts within a small factor.
"""

import pytest

from repro.asr import ASRManager, Decomposition, Extension, build_extension
from repro.bench.render import format_table
from repro.costmodel import (
    ApplicationProfile,
    QueryCostModel,
    partition_cardinality,
)
from repro.query import BackwardQuery, ForwardQuery, QueryEvaluator
from repro.workload import ChainGenerator, measure_profile

PROFILE = ApplicationProfile(
    c=(60, 120, 240, 480, 960),
    d=(54, 96, 190, 380),
    fan=(2, 2, 3, 2),
    size=(500, 400, 300, 300, 100),
)


@pytest.fixture(scope="module")
def world():
    generated = ChainGenerator(seed=11).generate(PROFILE)
    manager = ASRManager(generated.db)
    asrs = {
        "full/bi": manager.create(
            generated.path, Extension.FULL, Decomposition.binary(generated.path.m)
        ),
        "can/nodec": manager.create(
            generated.path, Extension.CANONICAL, Decomposition.none(generated.path.m)
        ),
    }
    measured = measure_profile(generated)
    return generated, asrs, measured


def test_cardinality_model_vs_actual(world, record):
    generated, _asrs, measured = world
    rows = []
    for extension in Extension:
        actual = len(build_extension(generated.db, generated.path, extension))
        model = partition_cardinality(measured, extension, 0, measured.n)
        rows.append([extension.value, actual, round(model, 1)])
    record(
        "validation_cardinality",
        format_table(
            ["extension", "actual rows", "model estimate"],
            rows,
            "Validation — extension cardinality, simulator vs model",
        ),
    )
    for extension, actual, model in rows:
        assert actual > 0
        assert abs(model - actual) / actual < 0.35, (extension, actual, model)


def test_backward_query_model_vs_measured(world, record):
    generated, asrs, measured = world
    evaluator = QueryEvaluator(generated.db, generated.store)
    model = QueryCostModel(measured)
    target = generated.layers[generated.n][0]
    query = BackwardQuery(generated.path, 0, generated.n, target=target)
    unsupported = evaluator.evaluate_unsupported(query)
    supported = evaluator.evaluate_supported(query, asrs["full/bi"])
    predicted_unsupported = model.qnas(0, measured.n, "bw")
    predicted_supported = model.q(
        Extension.FULL, 0, measured.n, "bw", Decomposition.binary(measured.n)
    )
    record(
        "validation_backward_query",
        format_table(
            ["strategy", "measured pages", "model pages"],
            [
                ["unsupported", unsupported.page_reads, predicted_unsupported],
                ["full/bi supported", supported.page_reads, predicted_supported],
            ],
            "Validation — Q_{0,n}(bw) page accesses",
        ),
    )
    assert supported.cells == unsupported.cells
    # The exhaustive scan estimate is within a factor of two of reality.
    assert 0.5 <= predicted_unsupported / max(unsupported.page_reads, 1) <= 2.0
    # Both agree that support wins by an order of magnitude.
    assert supported.page_reads < unsupported.page_reads / 5
    assert predicted_supported < predicted_unsupported / 5


def test_forward_query_model_vs_measured(world, record):
    generated, asrs, measured = world
    evaluator = QueryEvaluator(generated.db, generated.store)
    model = QueryCostModel(measured)
    starts = [
        oid
        for oid in generated.layers[0]
        if evaluator.evaluate_unsupported(
            ForwardQuery(generated.path, 0, generated.n, start=oid)
        ).cells
    ][:10]
    assert starts, "no start object reaches t_n"
    pages = [
        evaluator.evaluate_unsupported(
            ForwardQuery(generated.path, 0, generated.n, start=start)
        ).page_reads
        for start in starts
    ]
    measured_pages = sum(pages) / len(pages)
    predicted = model.qnas(0, measured.n, "fw")
    record(
        "validation_forward_query",
        format_table(
            ["strategy", "measured pages (avg)", "model pages"],
            [["unsupported fw", round(measured_pages, 1), predicted]],
            "Validation — Q_{0,n}(fw) page accesses",
        ),
    )
    assert 0.4 <= predicted / max(measured_pages, 1) <= 2.5


def test_supported_results_match_oracle(world):
    """Every (extension, decomposition) ASR answers queries identically."""
    generated, _asrs, _measured = world
    manager = ASRManager(generated.db)
    evaluator = QueryEvaluator(generated.db, generated.store)
    path = generated.path
    asrs = [
        manager.create(path, extension, dec)
        for extension in Extension
        for dec in (Decomposition.binary(path.m), Decomposition.none(path.m))
    ]
    target = generated.layers[generated.n][1]
    query = BackwardQuery(path, 0, path.n, target=target)
    reference = evaluator.evaluate_unsupported(query).cells
    for asr in asrs:
        assert evaluator.evaluate_supported(query, asr).cells == reference
