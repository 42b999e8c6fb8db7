"""Pinned page counts of the three FIG14 kinds on the seeded x1 world.

Recorded at the commit *before* the read path went page-at-a-time and
required to hold on both sides of that change: the currency of the paper
is the page access, so a faster read path may not move one of them.
The world is the ladder's at scale x1 (``SMALL_PROFILE``, seed 7, FULL,
type borders (0, 2, 4)); the bindings are a fixed stride through the
generator's layers, so nothing here depends on a hash order.
"""

from collections import Counter

import pytest

from repro.asr.asr import AccessSupportRelation
from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.bench.serve import SMALL_PROFILE
from repro.concurrency import ContextPool
from repro.context import ExecutionContext
from repro.query.evaluator import QueryEvaluator
from repro.query.queries import BackwardQuery, ForwardQuery
from repro.workload import ChainGenerator

TYPE_BORDERS = (0, 2, 4)
BINDINGS_PER_KIND = 20

#: kind -> (Σ page_reads, Σ by_category, Σ answer cells) over the kind's
#: 20 bindings, each its own operation under the ``unbounded`` policy.
UNBOUNDED = {
    "Q0,4(bw)": (57, {"btree_interior": 27, "btree_leaf": 30}, 12),
    "Q0,3(bw)": (166, {"btree_interior": 31, "btree_leaf": 135}, 9),
    "Q1,2(fw)": (80, {"btree_interior": 20, "btree_leaf": 60}, 34),
}

#: The same 60 operations, in this order, through one context of a cold
#: 4096-page ``ContextPool``: only first touches are charged.
POOLED = {
    "Q0,4(bw)": (11, {"btree_interior": 2, "btree_leaf": 9}, 12),
    "Q0,3(bw)": (7, {"btree_interior": 1, "btree_leaf": 6}, 9),
    "Q1,2(fw)": (4, {"btree_interior": 1, "btree_leaf": 3}, 34),
}


@pytest.fixture(scope="module")
def world():
    generated = ChainGenerator(7).generate(SMALL_PROFILE)
    path = generated.path
    asr = AccessSupportRelation.build(
        generated.db,
        path,
        Extension.FULL,
        Decomposition.of(*(path.column_of(i) for i in TYPE_BORDERS)),
    )
    return generated, asr


def bindings(generated, i, j, kind):
    layer = generated.layers[j if kind == "bw" else i]
    picks = [
        layer[k * len(layer) // BINDINGS_PER_KIND] for k in range(BINDINGS_PER_KIND)
    ]
    if kind == "bw":
        return [BackwardQuery(generated.path, i, j, target=oid) for oid in picks]
    return [ForwardQuery(generated.path, i, j, start=oid) for oid in picks]


def measure(world, context):
    generated, asr = world
    evaluator = QueryEvaluator(generated.db, generated.store, context=context)
    observed = {}
    for i, j, kind in ((0, 4, "bw"), (0, 3, "bw"), (1, 2, "fw")):
        reads, categories, cells = 0, Counter(), 0
        for query in bindings(generated, i, j, kind):
            result = evaluator.evaluate_supported(query, asr)
            assert result.page_writes == 0
            reads += result.page_reads
            categories.update(result.detail)
            cells += len(result.cells)
        observed[f"Q{i},{j}({kind})"] = (reads, dict(categories), cells)
    return observed


def test_world_is_the_one_the_counts_were_taken_on(world):
    _generated, asr = world
    assert [
        (p.first_column, p.last_column, p.tuple_count, p.page_count)
        for p in asr.partitions
    ] == [(0, 4, 220, 3), (4, 8, 548, 6)]


def test_unbounded_policy_counts_are_pinned(world):
    assert measure(world, ExecutionContext()) == UNBOUNDED


def test_counts_through_a_shared_pool_are_pinned(world):
    pool = ContextPool(4096)
    with pool.context() as context:
        assert measure(world, context) == POOLED
    pool.pool.check_invariants()
    assert pool.check_accounting()["ok"]
