"""One measured cost model per manager (DESIGN §10).

Every manager holds one :class:`MeasuredCosts` (``MeasuredCosts(db)``
unless given one), measured on the first price asked, not when the
manager is built; every planner over it ranks by it and the advisor
loop re-measures through it.  In a served world the drift monitor, both
planners (replay and front door) and the daemon's advisor share it: one
profile per path, measured with the world's object sizes, refreshed by
the advisor sweep — so a price ``/drift`` validates is the price a plan
was ranked by, and the two planners choose alike.
"""

from itertools import combinations

import pytest

from repro.asr import (
    ASRManager,
    AdvisorLoop,
    Decomposition,
    Extension,
    WorkloadRecorder,
)
from repro.bench.serve import ServeConfig, build_world, execute_operation
from repro.costmodel import MeasuredCosts, profile_from_database
from repro.gom import ObjectBase, PathExpression, Schema
from repro.gom.types import NULL
from repro.query import BackwardQuery, ForwardQuery, Planner, QueryEvaluator
from repro.server import ServeDaemon, ServerConfig


@pytest.fixture()
def world():
    built = build_world(
        ServeConfig(clients=1, ops=200, seed=7, profile="queries", query_fraction=0.5)
    )
    yield built
    built.manager.close()


def shapes(world):
    """Every ``(i, j, kind)`` over both of the world's paths."""
    for asr in world.manager.asrs:
        path = asr.path
        for i, j in combinations(range(path.n + 1), 2):
            yield asr, BackwardQuery(path, i, j, target=NULL)
            yield asr, ForwardQuery(path, i, j, start=NULL)


def test_planner_and_drift_share_the_worlds_oracle(world):
    costs = world.manager.costs
    assert isinstance(costs, MeasuredCosts)
    assert world.drift.predictor is costs
    assert world.planner.manager.costs is costs
    assert world.queries.planner.manager.costs is costs
    # Sizes are the world's, not MeasuredCosts' default.
    profile = costs.profile_for(world.generated.path)
    assert profile.size == world.generated.profile.size


def test_planner_price_is_the_drift_price(world):
    predictor = world.drift.predictor
    assert len(world.manager.asrs) == 2
    for asr, query in shapes(world):
        for candidate in (asr, None):
            price = predictor.predict_query(query, candidate)
            assert price is not None
            for planner in (world.planner, world.queries.planner):
                assert planner.cost(query, candidate) == price


def test_replay_and_front_door_choose_alike(world):
    """One price list, one choice: the replay planner takes the front
    door's plan for every shape — ``Q1,2(fw)`` over the chain included,
    which the front door answers by traversal (Figure 8)."""
    fallbacks = set()
    for _asr, query in shapes(world):
        chosen = world.planner.plan(query).asr
        assert chosen is world.queries.planner.plan(query).asr
        if chosen is None and query.path == world.generated.path:
            fallbacks.add((query.i, query.j, query.kind))
    assert (1, 2, "fw") in fallbacks


def test_queries_profile_records_update_drift(world):
    updates = 0
    with world.pool.context() as context:
        evaluator = QueryEvaluator(
            world.generated.db, world.generated.store, context=context
        )
        for op in world.stream():
            execute_operation(world, context, world.planner, evaluator, op)
            updates += op.kind == "update"
    assert updates
    priced = {
        entry["decomposition"]
        for entry in world.drift.report()["by_key"]
        if entry["op"].startswith("ins_")
    }
    # Each maintained ASR is priced over its own path: the payload-path
    # ASR no longer makes the whole update sample unpriceable.
    assert priced == {str(asr.type_decomposition) for asr in world.manager.asrs}


def test_advisor_sweep_refreshes_the_shared_profile(tmp_path):
    daemon = ServeDaemon(
        ServerConfig(
            serve=ServeConfig(clients=0, ops=8, seed=7),
            port=0,
            out=str(tmp_path / "drain.json"),
            healer=False,
            advisor_interval=3600.0,  # sweeps below are the test's own
        )
    ).start()
    try:
        world = daemon.world
        costs, path = world.manager.costs, world.generated.path
        assert daemon.advisor.manager.costs is costs
        assert world.drift.predictor is costs
        db, layer = world.generated.db, world.generated.layers[0]
        owner = next(oid for oid in layer if db.attr(oid, "A") is NULL)
        before = costs.profile_for(path)
        member = world.generated.layers[1][0]
        with world.manager.exclusive():
            db.set_attr(owner, "A", db.new_set("SET_T1", [member]))
        assert costs.profile_for(path) is before  # nothing swept yet
        world.recorder.record_query(0, path.n, "bw", count=40)
        world.recorder.record_update(0)
        daemon.advisor.sweep(force=True)
        after = costs.profile_for(path)
        assert after.d[0] == before.d[0] + 1
        # The planners and the drift monitor see the sweep's measurement.
        for planner in (world.planner, world.queries.planner):
            assert planner.manager.costs.profile_for(path) is after
        assert world.drift.predictor.profile_for(path) is after
    finally:
        daemon.shutdown()


def test_every_manager_carries_a_price_list(small_chain):
    manager = ASRManager(small_chain.db)
    assert isinstance(manager.costs, MeasuredCosts)
    assert manager.costs.db is small_chain.db


def test_a_manager_measures_on_the_first_price_not_when_built():
    schema = Schema()
    schema.define_tuple("Part", {"Name": "STRING"})
    schema.define_tuple("Product", {"Name": "STRING", "Part": "Part"})
    schema.validate()
    db = ObjectBase(schema)
    manager = ASRManager(db)  # over an empty base
    path = PathExpression.parse(schema, "Product.Part.Name")
    for i in range(30):
        db.new("Product", Name=f"P{i}", Part=db.new("Part", Name=f"N{i % 7}"))
    query = BackwardQuery(path, 0, path.n, target="N3")
    plan = Planner(manager).plan(query)
    profile = manager.costs.profile_for(path)
    assert profile.c == (30.0, 30.0, 7.0)
    assert profile == profile_from_database(db, path)
    assert plan.estimated_pages == MeasuredCosts(db).predict_query(query, None)


def test_the_adaptive_designer_prices_through_the_managers_list(small_chain):
    """The advisor loop has no price list of its own: its recommend()
    re-measures the manager's."""
    manager = ASRManager(small_chain.db)
    asr = manager.create(small_chain.path, Extension.FULL)
    recorder = WorkloadRecorder(small_chain.path)
    recorder.record_query(0, small_chain.path.n, "bw", count=4)
    loop = AdvisorLoop(manager, asr, recorder)
    before = manager.costs.profile_for(small_chain.path)
    generation = manager.costs.generation
    loop.recommend()
    assert manager.costs.generation > generation
    assert manager.costs.profile_for(small_chain.path) is not before


def test_planner_cost_is_the_price_list(small_chain):
    """No second ranking: for every covering ASR and for the fallback,
    the planner's price is the manager's."""
    manager = ASRManager(small_chain.db)
    path = small_chain.path
    for extension in Extension:
        for decomposition in (Decomposition.none(path.m), Decomposition.binary(path.m)):
            manager.create(path, extension, decomposition)
    planner, costs = Planner(manager), manager.costs
    for i, j in combinations(range(path.n + 1), 2):
        for query in (
            BackwardQuery(path, i, j, target=small_chain.layers[j][0]),
            ForwardQuery(path, i, j, start=small_chain.layers[i][0]),
        ):
            covering = planner.applicable(query)
            assert len(covering) >= 2  # at least both full-extension ASRs
            for candidate in [*covering, None]:
                price = costs.predict_query(query, candidate)
                assert price is not None
                assert planner.cost(query, candidate) == price
