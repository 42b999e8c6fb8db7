"""Reading the hot series from their records loses nothing: exact identities.

The hot query path publishes ``ops{op}``, ``span.pages{op}`` and
``asr.lookups`` to its context's tally, and ``drift.observations`` to
the drift monitor's entries; the registry reads those records when it
is read.  After a fixed block on a generated world — every query
shape of the ladder's chain ASR, plus one quarantined and one
breaker-open decision — the registry must say exactly what happened:
one ``plan.*`` count per decision, one lookup per supported evaluation,
one ``span.pages`` observation per measured operation summing to the
pages charged, one drift observation per run of a shape.  And it must
say the same whether the block ran through ``Planner.execute`` or
through ``plan`` + ``run``.
"""

from collections import Counter

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.context import ExecutionContext
from repro.costmodel import ApplicationProfile
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector
from repro.query import BackwardQuery, ForwardQuery, Planner, QueryEvaluator
from repro.resilience import BreakerBoard
from repro.telemetry import DriftMonitor, MetricsRegistry
from repro.workload import ChainGenerator

from tests.resilience.test_breaker import FakeClock

PROFILE = ApplicationProfile(
    c=(20, 60, 180, 540),
    d=(18, 54, 160),
    fan=(3, 3, 3),
    size=(400, 300, 200, 100),
)


def run_block(route: str):
    """The fixed block on a fresh world; returns (registry, runs, drift)."""
    generated = ChainGenerator(seed=53).generate(PROFILE)
    db, path, layers = generated.db, generated.path, generated.layers
    registry = MetricsRegistry()
    context = ExecutionContext(metrics=registry)
    injector = FaultInjector()
    manager = ASRManager(db, fault_injector=injector)
    asr = manager.create(
        path,
        Extension.FULL,
        Decomposition.of(*(path.column_of(i) for i in (0, 2, path.n))),
    )
    board = BreakerBoard(threshold=2, cooldown_s=1.0, time_fn=FakeClock())
    drift = DriftMonitor(manager.costs, registry)
    planner = Planner(manager, drift=drift, breakers=board)
    evaluator = QueryEvaluator(db, generated.store, context=context)
    runs = []

    def ask(query):
        if route == "execute":
            result = planner.execute(query, evaluator)
            plan = planner.plan(query)  # uncounted: no context
        else:
            plan = planner.plan(query, context)
            result = planner.run(plan, evaluator)
        runs.append((plan, result))

    def shapes(k: int):
        return [
            BackwardQuery(path, 0, path.n, target=layers[path.n][k]),
            BackwardQuery(path, 0, 2, target=layers[2][k]),
            ForwardQuery(path, 1, 2, start=layers[1][k]),
        ]

    for k in range(4):
        for query in shapes(k):
            ask(query)
    # One quarantined decision.
    members = db.members(db.attr(layers[0][0], "A"))
    stranger = next(oid for oid in layers[1] if oid not in members)
    injector.crash_at("asr.flush.mid-delta", on_hit=1)
    with pytest.raises(SimulatedCrash):
        with manager.batch():
            db.set_insert(db.attr(layers[0][0], "A"), stranger)
    ask(shapes(5)[0])
    manager.recover(asr)
    # One breaker-open decision.
    board.record_failure(asr)
    board.record_failure(asr)
    ask(shapes(6)[0])
    board.breaker_for(asr).reset()
    ask(shapes(7)[0])
    return registry, runs, drift


def counter(registry, name, **labels):
    return registry.counter_value(name, **labels)


@pytest.fixture(scope="module")
def executed():
    return run_block("execute")


def test_the_block_covers_every_case(executed):
    _registry, runs, _drift = executed
    plans = [plan for plan, _ in runs]
    assert any(plan.asr is not None for plan in plans)
    assert any(plan.asr is None and plan.restriction is None for plan in plans)
    assert {plan.restriction for plan in plans} >= {"quarantined", "breaker-open"}


def test_one_plan_count_per_decision(executed):
    registry, runs, _drift = executed
    supported = sum(plan.asr is not None for plan, _ in runs)
    assert counter(registry, "ops", op="plan.supported") == supported
    assert counter(registry, "ops", op="plan.unsupported") == len(runs) - supported
    assert counter(registry, "ops", op="plan.degraded-fallback") == 2
    assert counter(registry, "ops", op="plan.breaker-open") == 1


def test_one_lookup_per_supported_evaluation(executed):
    registry, runs, _drift = executed
    by_kind = Counter(plan.query.kind for plan, _ in runs if plan.asr is not None)
    for kind in ("fw", "bw"):
        assert counter(registry, "ops", op=f"query.supported.{kind}") == by_kind[kind]
    designs = {plan.asr for plan, _ in runs if plan.asr is not None}
    (asr,) = designs
    lookups = counter(
        registry,
        "asr.lookups",
        extension=asr.extension.value,
        decomposition=str(asr.decomposition),
    )
    assert lookups == sum(by_kind.values())


def test_span_pages_count_and_sum_the_measured_operations(executed):
    registry, runs, _drift = executed
    histograms = registry.snapshot()["histograms"]["span.pages"]
    assert sum(entry["count"] for entry in histograms) == len(runs)
    assert sum(entry["sum"] for entry in histograms) == sum(
        result.total_pages for _, result in runs
    )
    for entry in histograms:
        assert entry["count"] == counter(registry, "ops", op=entry["labels"]["op"])


def test_one_drift_observation_per_run_of_a_shape(executed):
    registry, runs, drift = executed
    expected = Counter()
    for plan, _ in runs:
        if plan.asr is None:
            key = ("unsupported", "-", plan.query.kind)
        else:
            key = (
                plan.asr.extension.value,
                str(plan.asr.type_decomposition),
                plan.query.kind,
            )
        expected[key] += 1
    published = {
        (e["labels"]["extension"], e["labels"]["decomposition"], e["labels"]["op"]): e[
            "value"
        ]
        for e in registry.snapshot()["counters"]["drift.observations"]
    }
    assert published == dict(expected)
    reported = {
        (e["extension"], e["decomposition"], e["op"]): e["count"]
        for e in drift.report()["by_key"]
    }
    assert reported == dict(expected)


def test_execute_publishes_what_plan_then_run_publishes(executed):
    registry, runs, _drift = executed
    split, split_runs, _ = run_block("plan+run")
    assert [r.total_pages for _, r in runs] == [r.total_pages for _, r in split_runs]
    assert registry.snapshot() == split.snapshot()
