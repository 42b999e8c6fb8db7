"""Breaker gating in the planner: open breakers route around the ASR."""

from repro.asr import ASRManager, Decomposition, Extension
from repro.context import ExecutionContext
from repro.query import BackwardQuery, Planner, QueryEvaluator
from repro.resilience import BreakerBoard

from tests.resilience.test_breaker import FakeClock


def world(company_world, threshold=2):
    db, path, o = company_world
    context = ExecutionContext()
    manager = ASRManager(db, context=context)
    # Undecomposed: one lookup, which the price list ranks below the
    # traversal, so a healthy breaker leaves the ASR chosen.
    asr = manager.create(path, Extension.FULL, Decomposition.none(path.m))
    clock = FakeClock()
    board = BreakerBoard(threshold=threshold, cooldown_s=1.0, time_fn=clock)
    planner = Planner(manager, breakers=board)
    evaluator = QueryEvaluator(db, context=context)
    query = BackwardQuery(path, 0, path.n, target="Door")
    return db, manager, asr, board, clock, planner, evaluator, query, context


class TestBreakerGating:
    def test_open_breaker_excludes_a_consistent_asr(self, company_world):
        db, manager, asr, board, clock, planner, evaluator, query, context = world(
            company_world
        )
        assert planner.plan(query).asr is asr
        board.record_failure(asr)
        board.record_failure(asr)  # threshold reached: open
        plan = planner.plan(query)
        assert plan.asr is None
        assert plan.breaker_blocked == 1
        # The query still answers, degraded, with the right rows — and
        # the degradation is visible in the context trace.
        result = planner.execute(query, evaluator)
        assert result.strategy == "unsupported"
        assert result.cells == evaluator.evaluate_unsupported(query).cells
        assert context.op_counts["plan.breaker-open"] == 1
        assert context.op_counts["plan.degraded-fallback"] == 1

    def test_probe_after_cooldown_closes_and_restores_fast_path(
        self, company_world
    ):
        db, manager, asr, board, clock, planner, evaluator, query, context = world(
            company_world
        )
        board.record_failure(asr)
        board.record_failure(asr)
        assert planner.plan(query).asr is None
        clock.advance(1.1)
        # The cooldown elapsed: the next plan IS the half-open probe, and
        # its successful execution closes the breaker.
        probe = planner.execute(query, evaluator)
        assert probe.strategy.startswith("asr:")
        assert board.breaker_for(asr).state == "closed"
        assert planner.plan(query).asr is asr

    def test_routine_successes_do_not_mask_accumulating_faults(
        self, company_world
    ):
        db, manager, asr, board, clock, planner, evaluator, query, context = world(
            company_world, threshold=3
        )
        # fault, good query, fault, good query … the storm rhythm.  The
        # good queries must not reset the count, so the third fault opens.
        for _ in range(2):
            board.record_failure(asr)
            planner.execute(query, evaluator)
        board.record_failure(asr)
        assert board.breaker_for(asr).state == "open"

    def test_planner_without_breakers_is_unchanged(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.none(path.m))
        planner = Planner(manager)
        query = BackwardQuery(path, 0, path.n, target="Door")
        plan = planner.plan(query)
        assert plan.asr is asr
        assert plan.breaker_blocked == 0


class Prices:
    """A price list: the traversal costs 1 page, an ASR what ``pages`` says."""

    def __init__(self, pages: dict) -> None:
        self.pages = pages  # id(asr) -> price
        self.generation = 0

    def set(self, asr, price: float) -> None:
        self.pages[id(asr)] = price
        self.generation += 1  # the planner re-prices on a new generation

    def predict_query(self, query, asr):
        return 1.0 if asr is None else self.pages[id(asr)]


class TestProbesGoToWinningDecisions:
    def test_half_open_probe_waits_for_a_decision_the_asr_wins(self, company_world):
        db, manager, asr, board, clock, planner, evaluator, query, context = world(
            company_world
        )
        prices = manager.costs = Prices({id(asr): 5.0})
        board.record_failure(asr)
        board.record_failure(asr)
        clock.advance(1.1)  # the cooldown elapsed: one probe is due
        for _ in range(3):
            # The traversal wins on price: the breaker is not asked, so
            # the probe is not spent and nothing is reported degraded.
            plan = planner.plan(query, context)
            assert plan.asr is None and plan.restriction is None
            assert planner.execute(query, evaluator).strategy == "unsupported"
        assert board.breaker_for(asr).state == "open"
        assert "plan.breaker-open" not in context.op_counts
        prices.set(asr, 0.5)
        # The first decision the ASR wins is the probe, and it closes.
        assert planner.execute(query, evaluator).strategy.startswith("asr:")
        assert board.breaker_for(asr).state == "closed"

    def test_a_pricier_asr_keeps_its_probe_when_a_cheaper_one_wins(
        self, company_world
    ):
        db, manager, asr, board, clock, planner, evaluator, query, context = world(
            company_world
        )
        # Registered second, so only price order puts it first.
        cheaper = manager.create(asr.path, Extension.FULL, Decomposition.none(asr.path.m))
        manager.costs = Prices({id(asr): 0.8, id(cheaper): 0.5})
        board.record_failure(asr)
        board.record_failure(asr)
        clock.advance(1.1)
        assert planner.plan(query).asr is cheaper
        assert board.breaker_for(asr).state == "open"  # never asked
