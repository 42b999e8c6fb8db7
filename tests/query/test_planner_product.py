"""One planner across its configuration product.

{``planner.execute(Q_{i,j})``, the same question as text through
``SelectExecutor``, compiled earlier or cold} x {healthy, quarantined,
breaker-open, half-open probe succeeding, half-open probe raising}, all
ranked by the manager's one price list: the answer always equals
``evaluate_unsupported``, the pages charged equal ``planner.execute``'s
for the same question in the same state, and what the decision leaves
behind — ``plan.*`` / ``query.degraded-fallback`` counts, breaker
transitions, drift observations, the ``restriction`` field, how often
the (stateful) breaker was asked — depends on route and state only.

The text route compiles while healthy and runs the frozen plan after the
state change: that is the compiled-plan re-check, the one other place a
restriction is decided.  The cold-text route plans and runs in one call
after the state change (``SelectExecutor.run``): a plan made in this
call is not re-checked, so a half-open breaker's one probe is spent on
the run.
"""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.bench.serve import ServeConfig, build_world, execute_operation
from repro.context import ExecutionContext
from repro.costmodel import ApplicationProfile, QueryCostModel
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector
from repro.gom import PathExpression
from repro.query import BackwardQuery, Planner, QueryEvaluator, SelectExecutor
from repro.resilience import BreakerBoard
from repro.telemetry import DriftMonitor
from repro.telemetry.tracing import Trace
from repro.workload import ChainGenerator

from tests.resilience.test_breaker import FakeClock

PROFILE = ApplicationProfile(
    c=(20, 60, 180, 540),
    d=(18, 54, 160),
    fan=(3, 3, 3),
    size=(400, 300, 200, 100),
)

#: One ranking, the manager's price list; a parameter so case ids name it.
RANKINGS = ["cost-ranked"]
ROUTES = ["execute", "text", "cold-text"]
STATES = ["healthy", "quarantined", "breaker-open", "probe-succeeds", "probe-raises"]

OPEN_PROBE = {("closed", "open"): 1, ("open", "half-open"): 1}

#: state -> what every route must observe:
#: (restriction, breaker transitions, ``allow_query`` calls of the
#: decision under test).  A quarantined ASR is restricted before its
#: breaker is ever asked.
BY_STATE = {
    "healthy": (None, {}, 1),
    "quarantined": ("quarantined", {}, 0),
    "breaker-open": ("breaker-open", {("closed", "open"): 1}, 1),
    "probe-succeeds": (None, {**OPEN_PROBE, ("half-open", "closed"): 1}, 1),
    "probe-raises": (None, {**OPEN_PROBE, ("half-open", "open"): 1}, 1),
}


def expected_counts(route: str, state: str) -> dict:
    degraded = state in ("quarantined", "breaker-open")
    if route == "text":
        # Planned once, healthy, at compile time; the run only re-checks.
        counts = {"plan.supported": 1}
        if degraded:
            counts["query.degraded-fallback"] = 1
        return counts
    if not degraded:
        return {"plan.supported": 1}
    counts = {"plan.unsupported": 1, "plan.degraded-fallback": 1}
    if state == "breaker-open":
        counts["plan.breaker-open"] = 1
    if route == "cold-text":
        counts["query.degraded-fallback"] = 1
    return counts


def expected_drift(state: str) -> int:
    """Every run plan is observed once, whatever the door it came through."""
    return 0 if state == "probe-raises" else 1


class CountingBoard(BreakerBoard):
    """A real board that also counts how often each ASR's breaker is asked."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.asked: dict[int, int] = {}

    def allow_query(self, asr) -> bool:
        self.asked[id(asr)] = self.asked.get(id(asr), 0) + 1
        return super().allow_query(asr)


class World:
    def __init__(self) -> None:
        self.generated = generated = ChainGenerator(seed=53).generate(PROFILE)
        self.db = db = generated.db
        n = generated.n
        self.path = path = PathExpression(db.schema, "T0", ("A",) * n + ("Payload",))
        self.context = ExecutionContext()
        self.injector = FaultInjector()
        self.manager = ASRManager(db, context=self.context, fault_injector=self.injector)
        self.asr = self.manager.create(
            path, Extension.FULL, Decomposition.binary(path.m)
        )
        self.clock = FakeClock()
        self.board = CountingBoard(threshold=2, cooldown_s=1.0, time_fn=self.clock)
        self.monitor = DriftMonitor(self.manager.costs)
        self.planner = Planner(self.manager, drift=self.monitor, breakers=self.board)
        self.evaluator = QueryEvaluator(db, generated.store, context=self.context)
        self.executor = SelectExecutor(db, self.planner, evaluator=self.evaluator)
        # A payload some T0 object reaches, so the answer is not empty.
        value = db.attr(generated.layers[n][0], "Payload")
        self.query = BackwardQuery(path, 0, n + 1, target=value)
        hops = ".".join(["A"] * n + ["Payload"])
        self.text = f"select x from x in extent(T0) where x.{hops} = {value}"

    def enter(self, state: str) -> None:
        if state == "quarantined":
            db, layers = self.db, self.generated.layers
            members = db.members(db.attr(layers[0][0], "A"))
            stranger = next(oid for oid in layers[1] if oid not in members)
            self.injector.crash_at("asr.flush.mid-delta", on_hit=1)
            with pytest.raises(SimulatedCrash):
                with self.manager.batch():
                    db.set_insert(db.attr(layers[0][0], "A"), stranger)
            assert self.asr.quarantined
        elif state != "healthy":
            self.board.record_failure(self.asr)
            self.board.record_failure(self.asr)  # threshold reached: open
            if state.startswith("probe"):
                self.clock.advance(1.1)  # cooldown over: next ask is the probe
        if state == "probe-raises":

            def torn(query, asr):
                raise RuntimeError("torn tree")

            self.evaluator.evaluate_supported = torn

    def truth(self) -> set:
        return QueryEvaluator(self.db).evaluate_unsupported(self.query).cells

    def decide(self, route: str, compiled) -> tuple[set, str | None, int]:
        """Ask the question once; returns (answer, restriction seen, pages)."""
        if route == "execute":
            trace = Trace("t", "Q", "query", sampled=True)
            result = self.planner.execute(self.query, self.evaluator, trace=trace)
            assert {"plan", "execute"} <= set(trace.phases)
            marks = {"ok": None, "degraded": "quarantined"}
            seen = marks.get(trace.outcome, trace.outcome)
            return result.cells, seen, result.total_pages
        if route == "cold-text":
            report = self.executor.run(self.text)
        else:
            report = self.executor.run_compiled(compiled)
        assert ("degraded" in report.strategy) == (report.restriction is not None)
        return {row[0] for row in report.rows}, report.restriction, report.total_pages

    def plan_counts(self) -> dict:
        return {
            name: count
            for name, count in self.context.op_counts.items()
            if name.startswith("plan.") or name == "query.degraded-fallback"
        }


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("ranking", RANKINGS)
def test_configuration_product(ranking, route, state):
    world = World()
    compiled = None
    if route == "text":
        compiled = world.executor.compile(world.text)
        assert any(action.plan.asr is not None for action in compiled.actions)
    world.enter(state)
    asked_before = world.board.asked.get(id(world.asr), 0)
    restriction, transitions, asks = BY_STATE[state]
    if state == "probe-raises":
        with pytest.raises(RuntimeError, match="torn tree"):
            world.decide(route, compiled)
    else:
        cells, seen, pages = world.decide(route, compiled)
        assert cells == world.truth() != set()
        assert seen == restriction
        # The pages column: whatever the door, the question costs what
        # ``planner.execute`` charges for its Q_{i,j} in the same state.
        twin = World()
        twin.enter(state)
        assert pages == twin.decide("execute", None)[2] > 0
    assert world.board.asked.get(id(world.asr), 0) - asked_before == asks
    assert world.board.breaker_for(world.asr).transitions == transitions
    assert world.plan_counts() == expected_counts(route, state)
    assert world.monitor.report()["overall"]["count"] == expected_drift(state)
    if state == "probe-raises":
        # The failed probe re-opened the breaker: the next ask degrades
        # and still answers correctly.
        del world.evaluator.evaluate_supported
        cells, seen, _ = world.decide(route, compiled)
        assert cells == world.truth()
        assert seen == "breaker-open"


@pytest.mark.parametrize("ranking", RANKINGS)
def test_each_breaker_is_asked_once_per_decision(ranking):
    world = World()
    other = world.manager.create(
        world.path, Extension.FULL, Decomposition.none(world.path.m)
    )
    cheap = min((world.asr, other), key=lambda asr: world.planner.cost(world.query, asr))
    # Only the candidate the decision uses is asked, once per decision.
    world.planner.plan(world.query)
    assert world.board.asked == {id(cheap): 1}
    world.planner.execute(world.query, world.evaluator)
    assert world.board.asked == {id(cheap): 2}


def test_cost_ranking_prices_a_shape_once(monkeypatch):
    """A repeated shape re-enters the cost model zero times; invalidating
    the path drops profile and memo together."""
    world = World()
    planner, costs, path = world.planner, world.manager.costs, world.path
    first = planner.plan(world.query)
    profile = costs.profile_for(path)
    reentered = []
    for name in ("qnas", "qsup"):
        monkeypatch.setattr(
            QueryCostModel, name, lambda *args, **kwargs: reentered.append(args)
        )
    again = planner.plan(BackwardQuery(path, 0, path.n, target=-1))  # same shape
    assert not reentered
    assert (again.asr, again.estimated_pages) == (first.asr, first.estimated_pages)
    costs.invalidate(path)
    assert costs.profile_for(path) is not profile
    planner.plan(world.query)
    assert reentered  # the memo went with the profile
    monkeypatch.undo()
    costs.invalidate(path)
    assert planner.plan(world.query).estimated_pages == first.estimated_pages


def test_cost_ranked_planner_is_a_drop_in_for_the_serving_core():
    """``execute_operation`` passes ``trace=`` to whatever planner it is
    handed; the front door's cost-ranked planner must take it."""
    world = build_world(ServeConfig(clients=1, ops=8, seed=3))
    try:
        op = next(op for op in world.stream() if op.kind == "query")
        with world.pool.context() as context:
            evaluator = QueryEvaluator(
                world.generated.db, world.generated.store, context=context
            )
            trace = Trace("t", op.name, op.kind, sampled=True)
            pages = execute_operation(
                world, context, world.queries.planner, evaluator, op, trace=trace
            )
        assert pages > 0
        assert {"plan", "execute"} <= set(trace.phases)
    finally:
        world.manager.close()
