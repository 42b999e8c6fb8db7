"""The replay planner's choices on the ladder's world, and what they cost.

The world is the ladder's at scale x1: ``build_world`` (``SMALL_PROFILE``,
seed 7), its chain ASR then replaced by FULL with type borders (0, 2, 4).
The manager carries the world's price list, so the replay planner ranks
by the cost model: ``Q1,2(fw)`` starts inside partition [0, 4], and the
model prices the one-page traversal below the partition scan (Figure 8),
while ``Q0,4(bw)`` and ``Q0,3(bw)`` stay on the ASR.  Every answer is
also read through the ASR, which keeps the mid-partition read of
``Q1,2`` under test although no plan takes it any more.
"""

import pytest

from repro.asr.asr import AccessSupportRelation
from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.bench.serve import ServeConfig, build_world
from repro.query.evaluator import QueryEvaluator

from tests.query.test_pinned_page_counts import TYPE_BORDERS, bindings

KINDS = ((0, 4, "bw"), (0, 3, "bw"), (1, 2, "fw"))

#: kind -> (answered through the ASR, Σ shared-pool touches (hits +
#: misses) of the replay planner's runs, Σ answer cells) over the kind's
#: 20 bindings.  Through the ASR, ``Q1,2(fw)`` would touch 80.
PINNED = {
    "Q0,4(bw)": (True, 68, 12),
    "Q0,3(bw)": (True, 170, 9),
    "Q1,2(fw)": (False, 20, 34),
}


@pytest.fixture(scope="module")
def world():
    built = build_world(ServeConfig(seed=7, capacity=4096, io_micros=0.0))
    path = built.generated.path
    asr = AccessSupportRelation.build(
        built.generated.db,
        path,
        Extension.FULL,
        Decomposition.of(*(path.column_of(i) for i in TYPE_BORDERS)),
    )
    built.manager.replace(built.manager.find(path)[0], asr)
    yield built, asr
    built.manager.close()


def touches(pool) -> int:
    counters = pool.describe()
    return counters["hits"] + counters["misses"]


def test_replay_planner_takes_the_traversal_only_for_q12(world):
    built, asr = world
    for i, j, kind in KINDS:
        supported = PINNED[f"Q{i},{j}({kind})"][0]
        for query in bindings(built.generated, i, j, kind):
            plan = built.planner.plan(query)
            assert plan.asr is (asr if supported else None)
            if not supported:
                # Chosen on price, not forced: the ASR was usable.
                assert plan.restriction is None
                assert plan.estimated_pages < built.planner.cost(query, asr)
                assert "priced ~" in plan.describe()


def test_touches_and_answers_are_pinned(world):
    built, asr = world
    generated = built.generated
    oracle = QueryEvaluator(generated.db)
    observed = {}
    for i, j, kind in KINDS:
        before, cells = touches(built.pool), 0
        with built.pool.context() as context:
            evaluator = QueryEvaluator(generated.db, generated.store, context=context)
            for query in bindings(generated, i, j, kind):
                answer = built.planner.execute(query, evaluator).cells
                assert answer == oracle.evaluate_unsupported(query).cells
                assert answer == oracle.evaluate_supported(query, asr).cells
                cells += len(answer)
        supported = PINNED[f"Q{i},{j}({kind})"][0]
        observed[f"Q{i},{j}({kind})"] = (supported, touches(built.pool) - before, cells)
    assert observed == PINNED
    # The replay stream's drift now has a fallback key.
    keys = {
        (entry["extension"], entry["decomposition"], entry["op"])
        for entry in built.drift.report()["by_key"]
    }
    assert ("unsupported", "-", "fw") in keys
