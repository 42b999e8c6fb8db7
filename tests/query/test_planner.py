"""Planner: Eq. 35 applicability and plan ranking."""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.query import BackwardQuery, ForwardQuery, Planner, QueryEvaluator


@pytest.fixture()
def setup(small_chain):
    manager = ASRManager(small_chain.db)
    planner = Planner(manager)
    evaluator = QueryEvaluator(small_chain.db, small_chain.store)
    return small_chain, manager, planner, evaluator


class TestApplicability:
    def test_no_asr_no_plan(self, setup):
        generated, _manager, planner, _evaluator = setup
        query = BackwardQuery(
            generated.path, 0, generated.path.n, target=generated.layers[-1][0]
        )
        plan = planner.plan(query)
        assert plan.asr is None
        assert "unsupported" in plan.describe()

    def test_applicable_filtering(self, setup):
        generated, manager, planner, _evaluator = setup
        path = generated.path
        can = manager.create(path, Extension.CANONICAL)
        left = manager.create(path, Extension.LEFT)
        right = manager.create(path, Extension.RIGHT)
        full = manager.create(path, Extension.FULL)
        whole = BackwardQuery(path, 0, path.n, target=generated.layers[-1][0])
        assert set(planner.applicable(whole)) == {can, left, right, full}
        prefix = ForwardQuery(path, 0, 1, start=generated.layers[0][0])
        assert set(planner.applicable(prefix)) == {left, full}
        suffix = BackwardQuery(path, 1, path.n, target=generated.layers[-1][0])
        assert set(planner.applicable(suffix)) == {right, full}
        middle = ForwardQuery(path, 1, 2, start=generated.layers[1][0])
        assert set(planner.applicable(middle)) == {full}

    def test_plan_prefers_cheaper_asr(self, setup):
        generated, manager, planner, _evaluator = setup
        path = generated.path
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        nodec = manager.create(path, Extension.FULL, Decomposition.none(path.m))
        whole = BackwardQuery(path, 0, path.n, target=generated.layers[-1][0])
        plan = planner.plan(whole)
        # Non-decomposed: one descent instead of one per partition.
        assert plan.asr is nodec

    def test_execute_matches_direct_evaluation(self, setup):
        generated, manager, planner, evaluator = setup
        path = generated.path
        # Undecomposed: one lookup, which the price list takes.
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        query = BackwardQuery(path, 0, path.n, target=generated.layers[-1][0])
        via_planner = planner.execute(query, evaluator)
        direct = evaluator.evaluate_unsupported(query)
        assert via_planner.cells == direct.cells
        assert via_planner.strategy.startswith("asr:")

    def test_execute_fallback(self, setup):
        generated, manager, planner, evaluator = setup
        path = generated.path
        manager.create(path, Extension.CANONICAL)
        partial = BackwardQuery(path, 1, path.n, target=generated.layers[-1][0])
        result = planner.execute(partial, evaluator)
        assert result.strategy == "unsupported"
