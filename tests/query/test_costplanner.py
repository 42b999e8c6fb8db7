"""Cost-based planning: model-driven plan choice including fallback."""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.costmodel import ApplicationProfile, MeasuredCosts
from repro.gom import PathExpression
from repro.query import (
    BackwardQuery,
    ForwardQuery,
    Planner,
    QueryEvaluator,
    SelectExecutor,
)
from repro.workload import ChainGenerator

PROFILE = ApplicationProfile(
    c=(20, 60, 180, 540),
    d=(18, 54, 160),
    fan=(3, 3, 3),
    size=(400, 300, 200, 100),
)

SIZES = {"T0": 400, "T1": 300, "T2": 200, "T3": 100}


@pytest.fixture()
def world():
    generated = ChainGenerator(seed=53).generate(PROFILE)
    manager = ASRManager(generated.db, costs=MeasuredCosts(generated.db, SIZES))
    planner = Planner(manager)
    evaluator = QueryEvaluator(generated.db, generated.store)
    return generated, manager, planner, evaluator


class TestCostBasedChoice:
    def test_whole_path_backward_uses_asr(self, world):
        generated, manager, planner, evaluator = world
        path = generated.path
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        query = BackwardQuery(path, 0, path.n, target=generated.layers[-1][0])
        plan = planner.plan(query)
        assert plan.asr is not None
        result = planner.execute(query, evaluator)
        assert result.cells == evaluator.evaluate_unsupported(query).cells

    def test_figure8_fallback(self, world):
        """A partial query against a huge non-decomposed relation loses to
        the cheap traversal — the planner must pick the fallback."""
        generated, manager, planner, evaluator = world
        path = generated.path
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        # Forward from a single object over one step: traversal costs ~2
        # pages; the supported plan must scan the whole undecomposed
        # relation (the query endpoint is interior).
        query = ForwardQuery(path, 0, 1, start=generated.layers[0][0])
        assert planner.cost(query, None) < planner.cost(query, manager.asrs[0])
        plan = planner.plan(query)
        assert plan.asr is None
        result = planner.execute(query, evaluator)
        assert result.strategy == "unsupported"

    def test_prefers_cheaper_decomposition(self, world):
        generated, manager, planner, _evaluator = world
        path = generated.path
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        nodec = manager.create(path, Extension.FULL, Decomposition.none(path.m))
        query = BackwardQuery(path, 0, path.n, target=generated.layers[-1][0])
        plan = planner.plan(query)
        assert plan.asr is nodec  # one descent beats one per partition

    def test_profile_cache_and_invalidate(self, world):
        generated, manager, _planner, _evaluator = world
        path = generated.path
        costs = manager.costs
        first = costs.profile_for(path)
        assert costs.profile_for(path) is first  # profile and memo cached
        generated.db.delete(generated.layers[3][0])
        costs.invalidate(path)
        second = costs.profile_for(path)  # re-measured
        assert second.c[3] == first.c[3] - 1

    def test_costs_positive_and_finite(self, world):
        generated, manager, planner, _evaluator = world
        path = generated.path
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        for i, j in [(0, 3), (1, 3), (0, 2)]:
            query = BackwardQuery(path, i, j, target=generated.layers[j][0])
            assert 0 < planner.cost(query, None) < float("inf")
            assert 0 < planner.cost(query, asr) < float("inf")

    def test_figure8_fallback_through_text_is_charged(self, world):
        """A text predicate the planner deliberately answers by the scan
        (priced below the covering ASR) reports the scan's pages — what
        ``Planner.execute`` charges for its Q_{i,j} — not 0."""
        generated, manager, _planner, evaluator = world
        db = generated.db
        n = generated.n
        path = PathExpression(db.schema, "T0", ("A",) * n + ("Payload",))
        manager.create(path, Extension.FULL, Decomposition.none(path.m))

        class ScanIsCheaper:
            generation = 0  # never invalidated

            def predict_query(self, query, asr):
                return 1.0 if asr is None else 1000.0

        manager.costs = ScanIsCheaper()
        planner = Planner(manager)
        value = db.attr(generated.layers[n][0], "Payload")
        hops = ".".join(["A"] * n + ["Payload"])
        report = SelectExecutor(db, planner, evaluator=evaluator).run(
            f"select x from x in extent(T0) where x.{hops} = {value}"
        )
        query = BackwardQuery(path, 0, path.n, target=value)
        scan = planner.execute(query, evaluator)
        assert scan.strategy == "unsupported"
        assert {row[0] for row in report.rows} == scan.cells != set()
        assert report.total_pages == scan.total_pages > 0
        assert report.strategy == "nested-loop traversal"
        assert report.restriction is None
