"""Degraded-mode queries: quarantined ASRs are skipped, results stay right.

A quarantined ASR's trees may be torn, so nothing may read them — but
queries must still answer correctly through another decomposition or the
unsupported evaluation, and the degradation must be visible in the
context trace and strategy strings.
"""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.context import ExecutionContext
from repro.errors import QueryError, SimulatedCrash
from repro.faults import FaultInjector
from repro.query import BackwardQuery, Planner, QueryEvaluator, SelectExecutor


def quarantine(manager, injector, db, o):
    """Tear one flush so every registered ASR over the path quarantines."""
    injector.crash_at("asr.flush.mid-delta", on_hit=1)
    with pytest.raises(SimulatedCrash):
        with manager.batch():
            db.set_insert(o["parts_sec"], o["pepper"])


class TestPlannerSkipsQuarantined:
    def test_planner_falls_back_to_unsupported(self, company_world):
        db, path, o = company_world
        injector = FaultInjector()
        context = ExecutionContext()
        manager = ASRManager(db, context=context, fault_injector=injector)
        # Undecomposed: one lookup, priced below the traversal.
        asr = manager.create(path, Extension.FULL, Decomposition.none(path.m))
        planner = Planner(manager)
        evaluator = QueryEvaluator(db, context=context)
        query = BackwardQuery(path, 0, path.n, target="Door")
        expected = planner.execute(query, evaluator).cells
        quarantine(manager, injector, db, o)
        assert planner.applicable(query) == []
        assert planner.plan(query).restriction == "quarantined"
        result = planner.execute(query, evaluator)
        assert result.strategy == "unsupported"
        assert result.cells == evaluator.evaluate_unsupported(query).cells
        assert context.op_counts["plan.degraded-fallback"] == 1
        # Recovery restores the fast path (and changes the answer set to
        # the post-update truth, matching the unsupported strategy).
        manager.recover()
        assert planner.applicable(query) == [asr]
        recovered = planner.execute(query, evaluator)
        assert recovered.strategy.startswith("asr:")
        assert recovered.cells == evaluator.evaluate_unsupported(query).cells
        assert expected <= recovered.cells

    def test_planner_prefers_surviving_decomposition(self, company_world):
        db, path, o = company_world
        injector = FaultInjector()
        manager = ASRManager(db, fault_injector=injector)
        torn = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        survivor = manager.create(path, Extension.FULL, Decomposition.none(path.m))
        planner = Planner(manager)
        query = BackwardQuery(path, 0, path.n, target="Door")
        # Quarantine only the first ASR: a transient fault hits the first
        # delta of the flush (ASR order is registration order).
        injector.fault_at("asr.flush.mid-delta", times=1)
        with manager.batch():
            db.set_insert(o["parts_sec"], o["pepper"])
        assert torn.quarantined and not survivor.quarantined
        assert planner.applicable(query) == [survivor]
        plan = planner.plan(query)
        assert plan.asr is survivor

    def test_cost_planner_counts_degraded_decisions(self, company_world):
        db, path, o = company_world
        injector = FaultInjector()
        context = ExecutionContext()
        manager = ASRManager(db, context=context, fault_injector=injector)
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        planner = Planner(manager)
        evaluator = QueryEvaluator(db, context=context)
        quarantine(manager, injector, db, o)
        query = BackwardQuery(path, 0, path.n, target="Door")
        result = planner.execute(query, evaluator)
        assert result.cells == evaluator.evaluate_unsupported(query).cells
        assert context.op_counts["plan.degraded-fallback"] == 1
        assert context.op_counts["plan.unsupported"] == 1


class TestEvaluatorGuards:
    def test_direct_supported_read_refused(self, company_world):
        db, path, o = company_world
        injector = FaultInjector()
        manager = ASRManager(db, fault_injector=injector)
        asr = manager.create(path, Extension.FULL)
        evaluator = QueryEvaluator(db)
        quarantine(manager, injector, db, o)
        query = BackwardQuery(path, 0, path.n, target="Door")
        with pytest.raises(QueryError, match="quarantined"):
            evaluator.evaluate_supported(query, asr)

    def test_evaluate_falls_back_and_counts(self, company_world):
        db, path, o = company_world
        injector = FaultInjector()
        context = ExecutionContext()
        manager = ASRManager(db, context=context, fault_injector=injector)
        asr = manager.create(path, Extension.FULL)
        evaluator = QueryEvaluator(db, context=context)
        quarantine(manager, injector, db, o)
        query = BackwardQuery(path, 0, path.n, target="Door")
        result = evaluator.evaluate(query, asr)
        assert result.strategy == "unsupported (degraded: ASR quarantined)"
        assert result.cells == evaluator.evaluate_unsupported(query).cells
        assert context.op_counts["query.degraded-fallback"] == 1


class TestExecutorDegradedPath:
    SELECT = (
        "select d.Name from d in Mercedes "
        'where d.Manufactures.Composition.Name = "Door"'
    )

    def test_select_still_answers_via_nested_loop(self, company_world):
        db, path, o = company_world
        injector = FaultInjector()
        context = ExecutionContext()
        manager = ASRManager(db, context=context, fault_injector=injector)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        executor = SelectExecutor(
            db, Planner(manager), QueryEvaluator(db, context=context)
        )
        fast = executor.run(self.SELECT)
        assert fast.strategy.startswith("asr-backward")
        quarantine(manager, injector, db, o)
        degraded = executor.run(self.SELECT)
        assert degraded.strategy == (
            "nested-loop traversal (degraded: ASR quarantined)"
        )
        assert sorted(degraded.rows) == sorted(fast.rows)
        assert context.op_counts["query.degraded-fallback"] == 1
        manager.recover()
        healed = executor.run(self.SELECT)
        assert healed.strategy.startswith("asr-backward")
        assert sorted(healed.rows) == sorted(fast.rows)
