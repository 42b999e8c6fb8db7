"""The planner's decision memo: priced once per query shape and epoch.

``Planner.plan`` remembers, per ``(path, i, j, kind)``, the fallback's
price and every covering ASR with its price, for one ``manager.epoch``
and one generation of ``manager.costs``.  Registration, ``replace`` and
quarantine transitions move the epoch; maintenance does not, because a
decision holds ASRs and prices, never rows, so a remembered decision
survives an update.  Restrictions are never remembered: every decision
asks each covering ASR's breaker once.  These tests pin when a decision
is re-priced, that a remembered decision picks what a fresh planner
picks, and that ``Planner.execute`` holds the manager's read lock once.
"""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.asr.asr import AccessSupportRelation
from repro.concurrency import RWLock
from repro.context import ExecutionContext
from repro.costmodel import ApplicationProfile, MeasuredCosts
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector
from repro.query import BackwardQuery, ForwardQuery, Planner, QueryEvaluator
from repro.workload import ChainGenerator

from tests.query.test_planner_product import CountingBoard
from tests.resilience.test_breaker import FakeClock

PROFILE = ApplicationProfile(
    c=(20, 60, 180, 540),
    d=(18, 54, 160),
    fan=(3, 3, 3),
    size=(400, 300, 200, 100),
)


class CountingCosts(MeasuredCosts):
    """The manager's price list, counting the prices asked of it."""

    def __init__(self, db) -> None:
        super().__init__(db)
        self.asked = 0

    def predict_query(self, query, asr):
        self.asked += 1
        return super().predict_query(query, asr)


class CountingLock(RWLock):
    """A real readers-writer lock that counts read acquisitions."""

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    def acquire_read(self) -> None:
        self.reads += 1
        super().acquire_read()


def type_borders(path, *borders: int) -> Decomposition:
    return Decomposition.of(*(path.column_of(i) for i in borders))


class World:
    """A FULL ASR per design (``designs(path)``; default type borders
    (0, 2, n)) over a generated chain, a counting price list and board."""

    def __init__(self, designs=lambda path: (type_borders(path, 0, 2, path.n),)) -> None:
        self.generated = generated = ChainGenerator(seed=53).generate(PROFILE)
        self.db = generated.db
        self.path = path = generated.path
        self.injector = FaultInjector()
        self.costs = CountingCosts(self.db)
        self.manager = ASRManager(
            self.db, fault_injector=self.injector, costs=self.costs
        )
        self.asrs = [
            self.manager.create(path, Extension.FULL, design) for design in designs(path)
        ]
        self.clock = FakeClock()
        self.board = CountingBoard(threshold=2, cooldown_s=1.0, time_fn=self.clock)
        self.planner = Planner(self.manager, breakers=self.board)
        self.query = BackwardQuery(path, 0, path.n, target=generated.layers[path.n][0])

    def insert(self) -> None:
        """One eager ``ins_0``: a T0 object's set gains a T1 object."""
        db, layers = self.db, self.generated.layers
        members = db.members(db.attr(layers[0][0], "A"))
        stranger = next(oid for oid in layers[1] if oid not in members)
        db.set_insert(db.attr(layers[0][0], "A"), stranger)

    def priced_again(self) -> bool:
        """Plan the query; True when the decision asked the price list."""
        before = self.costs.asked
        self.planner.plan(self.query)
        return self.costs.asked > before


def test_a_repeated_shape_is_priced_once_per_epoch():
    world = World()
    assert world.priced_again()
    other_target = BackwardQuery(world.path, 0, world.path.n, target=-1)
    asked = world.costs.asked
    world.planner.plan(other_target)  # same shape, another target
    assert world.costs.asked == asked
    assert not world.priced_again()


def test_replace_re_decides_and_plans_the_replacement():
    world = World()
    old = world.asrs[0]
    assert world.planner.plan(world.query).asr is old
    new = AccessSupportRelation.build(world.db, world.path, Extension.FULL, old.decomposition)
    epoch = world.manager.epoch
    world.manager.replace(old, new)
    assert world.manager.epoch == epoch + 1
    before = world.costs.asked
    plan = world.planner.plan(world.query)
    assert world.costs.asked > before
    assert plan.asr is new


def test_quarantine_then_recover_re_decides():
    world = World()
    asr = world.asrs[0]
    world.priced_again()
    world.injector.crash_at("asr.flush.mid-delta", on_hit=1)
    with pytest.raises(SimulatedCrash):
        with world.manager.batch():
            world.insert()
    assert asr.quarantined
    assert world.priced_again()
    degraded = world.planner.plan(world.query)
    assert (degraded.asr, degraded.restriction) == (None, "quarantined")
    assert world.manager.recover(asr) == 1
    assert world.priced_again()
    assert world.planner.plan(world.query).asr is asr


def test_an_eager_update_keeps_the_decision():
    world = World()
    world.priced_again()
    epoch, rows = world.manager.epoch, world.asrs[0].tuple_count
    world.insert()
    assert world.asrs[0].tuple_count != rows  # the update was maintained …
    assert world.manager.epoch == epoch  # … and changed no decision
    assert not world.priced_again()


def test_invalidating_the_price_list_re_decides():
    world = World()
    world.priced_again()
    epoch = world.manager.epoch
    world.manager.costs.invalidate(world.path)
    assert world.manager.epoch == epoch  # the epoch did not move; the prices did
    assert world.priced_again()
    assert not world.priced_again()


def test_a_replaced_price_list_re_decides():
    world = World()
    world.priced_again()
    world.manager.costs = world.costs = CountingCosts(world.db)
    assert world.priced_again()


def test_each_covering_breaker_is_asked_once_per_decision():
    world = World(lambda path: (Decomposition.none(path.m), Decomposition.binary(path.m)))
    cheap = min(world.asrs, key=lambda asr: world.planner.cost(world.query, asr))
    assert world.planner.cost(world.query, cheap) < world.planner.cost(world.query, None)
    for decisions in (1, 2, 3):  # the first prices, the others remember
        world.planner.plan(world.query)
        # Only the candidate the decision uses is asked, once; a pricier
        # one never is, so its half-open probe is not spent.
        assert world.board.asked == {id(cheap): decisions}


def test_an_open_breaker_on_the_cheaper_asr_yields_the_other():
    world = World(
        lambda path: (Decomposition.none(path.m), type_borders(path, 0, 2, path.n))
    )
    cheap, other = sorted(world.asrs, key=lambda asr: world.planner.cost(world.query, asr))
    assert world.planner.cost(world.query, cheap) < world.planner.cost(world.query, other)
    assert world.planner.plan(world.query).asr is cheap  # remembered, healthy
    world.board.record_failure(cheap)
    world.board.record_failure(cheap)  # threshold reached: open
    remembered = world.planner.plan(world.query)
    fresh = Planner(world.manager, breakers=world.board).plan(world.query)
    assert remembered == fresh
    assert remembered.asr is other
    assert (remembered.breaker_blocked, remembered.restriction) == (1, None)


def test_execute_holds_the_read_lock_once():
    world = World()
    world.manager.lock = lock = CountingLock()
    evaluator = QueryEvaluator(world.db, world.generated.store, context=ExecutionContext())
    path = world.path
    queries = [
        world.query,
        BackwardQuery(path, 0, 2, target=world.generated.layers[2][0]),
        ForwardQuery(path, 1, 2, start=world.generated.layers[1][0]),
    ]
    for query in queries:
        before = lock.reads
        world.planner.execute(query, evaluator)
        assert lock.reads == before + 1
    before = lock.reads
    plan = world.planner.plan(world.query)
    world.planner.run(plan, evaluator)
    assert lock.reads == before + 2  # the public halves keep their own holds
