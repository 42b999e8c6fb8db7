"""The physical-design advisor."""

import pytest

from repro.asr import Decomposition, Extension
from repro.costmodel import (
    ApplicationProfile,
    DesignAdvisor,
    MixCostModel,
    OperationMix,
    QuerySpec,
    UpdateSpec,
)

PROFILE = ApplicationProfile(
    c=(1000, 5000, 10000, 50000, 100000),
    d=(900, 4000, 8000, 20000),
    fan=(2, 2, 3, 4),
    size=(500, 400, 300, 300, 100),
)

MIX = OperationMix(
    queries=((0.5, QuerySpec(0, 4, "bw")), (0.5, QuerySpec(0, 3, "bw"))),
    updates=((1.0, UpdateSpec(3)),),
)


@pytest.fixture()
def advisor():
    return DesignAdvisor(PROFILE)


class TestEnumeration:
    def test_full_design_space(self, advisor):
        choices = advisor.enumerate(MIX, p_up=0.2)
        # 4 extensions x 2^(n-1) decompositions + no-support baseline.
        assert len(choices) == 4 * 8 + 1

    def test_sorted_by_cost(self, advisor):
        choices = advisor.enumerate(MIX, p_up=0.2)
        costs = [choice.cost for choice in choices]
        assert costs == sorted(costs)

    def test_cost_matches_mix_model(self, advisor):
        model = MixCostModel(PROFILE)
        for choice in advisor.enumerate(MIX, p_up=0.3)[:5]:
            if choice.extension is None:
                continue
            assert choice.cost == pytest.approx(
                model.mix_cost(choice.extension, choice.decomposition, MIX, 0.3)
            )


class TestBest:
    def test_query_heavy_prefers_support(self, advisor):
        best = advisor.best(MIX, p_up=0.05)
        assert best.extension in (Extension.FULL, Extension.LEFT)
        assert best.normalized < 0.1

    def test_pure_updates_prefer_baseline(self, advisor):
        best = advisor.best(MIX, p_up=1.0)
        assert best.extension is None

    def test_storage_budget_respected(self, advisor):
        budget = 400 * 1024
        best = advisor.best(MIX, p_up=0.1, max_storage_bytes=budget)
        assert best.extension is None or best.storage_bytes <= budget

    def test_impossible_budget_leaves_baseline(self, advisor):
        best = advisor.best(MIX, p_up=0.1, max_storage_bytes=1.0)
        assert best.extension is None


class TestReport:
    def test_report_format(self, advisor):
        text = advisor.report(MIX, p_up=0.2, top=3)
        assert "design ranking" in text
        assert text.count("\n") == 3
        assert "pages/op" in text

    def test_describe_baseline(self, advisor):
        choices = advisor.enumerate(MIX, p_up=1.0)
        baseline = next(c for c in choices if c.extension is None)
        assert "no access support" in baseline.describe()
