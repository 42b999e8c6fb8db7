"""Plan objects, the price list's estimates, and describe() surfaces."""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.costmodel import ApplicationProfile
from repro.query import BackwardQuery, ForwardQuery, Planner
from repro.query.planner import Plan
from repro.workload import ChainGenerator


@pytest.fixture()
def setup(small_chain):
    manager = ASRManager(small_chain.db)
    return small_chain, manager, Planner(manager)


@pytest.fixture()
def wide_chain():
    """A chain whose undecomposed partition spans pages (small_chain's fits
    so few that a scan prices like a lookup)."""
    generated = ChainGenerator(seed=17).generate(
        ApplicationProfile(
            c=(20, 60, 180, 540),
            d=(18, 54, 160),
            fan=(3, 3, 3),
            size=(400, 300, 200, 100),
        )
    )
    return generated, ASRManager(generated.db)


class TestPlanDescribe:
    def test_unsupported_plan(self, setup):
        generated, _manager, planner = setup
        query = BackwardQuery(
            generated.path, 0, generated.path.n, target=generated.layers[-1][0]
        )
        plan = planner.plan(query)
        assert plan.asr is None
        assert plan.estimated_pages == planner.manager.costs.predict_query(query, None)
        assert plan.describe().endswith(
            f"unsupported traversal/scan (priced ~{plan.estimated_pages:.0f} pages)"
        )

    def test_unsupported_plan_says_why(self, setup):
        """A slow-query line tells a Figure 8 choice from a degraded one."""
        generated, _manager, _planner = setup
        query = ForwardQuery(generated.path, 0, 1, start=generated.layers[0][0])
        why = {
            "priced ~1 pages": Plan(query, None, 1.2),
            "no usable ASR": Plan(query, None, float("inf")),
            "degraded: quarantined": Plan(query, None, 3.0, restriction="quarantined"),
            "degraded: breaker-open": Plan(
                query, None, float("inf"), breaker_blocked=1, restriction="breaker-open"
            ),
        }
        for reason, plan in why.items():
            assert plan.describe() == f"{query}: unsupported traversal/scan ({reason})"

    def test_fallback_chosen_on_price_is_described_by_its_price(self, small_chain):
        path = small_chain.path
        manager = ASRManager(small_chain.db)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        query = ForwardQuery(path, 1, 2, start=small_chain.layers[1][0])
        plan = Planner(manager).plan(query)
        assert plan.asr is None and plan.restriction is None
        assert f"(priced ~{plan.estimated_pages:.0f} pages)" in plan.describe()

    def test_supported_plan_mentions_design(self, setup):
        generated, manager, planner = setup
        # Undecomposed: one lookup, priced below the traversal.
        manager.create(
            generated.path, Extension.FULL, Decomposition.none(generated.path.m)
        )
        query = BackwardQuery(
            generated.path, 0, generated.path.n, target=generated.layers[-1][0]
        )
        plan = planner.plan(query)
        assert plan.asr is not None
        text = plan.describe()
        assert "full" in text and "pages" in text


class TestEstimates:
    def test_scan_heavier_than_border_lookup(self, wide_chain):
        """Figure 8: an endpoint inside a partition scans all of it."""
        generated, manager = wide_chain
        path, costs = generated.path, manager.costs
        nodec = manager.create(path, Extension.FULL, Decomposition.none(path.m))
        # Forward from the anchor: a border lookup.
        whole = ForwardQuery(path, 0, path.n, start=generated.layers[0][0])
        # Forward from a mid-path object: the endpoint is interior, so the
        # single partition must be scanned.
        partial = ForwardQuery(path, 1, path.n, start=generated.layers[1][0])
        border_cost = costs.predict_query(whole, nodec)
        scan_cost = costs.predict_query(partial, nodec)
        assert 0 < border_cost < scan_cost

    def test_estimate_counts_only_touched_partitions(self, wide_chain):
        generated, manager = wide_chain
        path, costs = generated.path, manager.costs
        binary = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        narrow = ForwardQuery(path, 0, 1, start=generated.layers[0][0])
        wide = ForwardQuery(path, 0, path.n, start=generated.layers[0][0])
        assert costs.predict_query(narrow, binary) < costs.predict_query(wide, binary)


class TestPlanDataclass:
    def test_fields(self, setup):
        generated, _manager, _planner = setup
        query = ForwardQuery(generated.path, 0, 1, start=generated.layers[0][0])
        plan = Plan(query, None, 12.5)
        assert plan.asr is None
        assert plan.estimated_pages == 12.5
