"""The shared pool in the device regime: a scan one partition long.

``Q0,3(bw)`` on the ladder's FULL (0, 2, 4) ASR ends inside partition
[2, 4], so every binding walks that partition's whole forward leaf chain
(the exhaustive inspection of Eqs. 33/34).  Behind a pool a little
smaller than that chain, LRU misses on every page of the walk, binding
after binding; LIRS keeps most of the chain resident.  This pins the
second of two serial passes over the same bindings and holds it below
half of what the LRU it replaced misses on the very same touches.

The world is the ladder's chain world (seed 7, FULL, type borders
(0, 2, 4)) with ``SMALL_PROFILE`` scaled by 4, the way the ladder scales
it by 25.  At x1 partition [2, 4] has only 6 leaves, and a pool below
that keeps too little of a binding's walk to matter: at 5 pages LIRS
misses 170 times on the second pass against LRU's 180.
"""

import pytest

from repro.asr.asr import AccessSupportRelation
from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.bench.serve import SMALL_PROFILE
from repro.concurrency import ContextPool
from repro.context import ExecutionContext
from repro.costmodel import ApplicationProfile
from repro.query.evaluator import QueryEvaluator
from repro.storage.stats import AccessStats
from repro.workload import ChainGenerator

from tests.query.test_pinned_page_counts import TYPE_BORDERS, bindings
from tests.storage.reference_lru import ReferenceLRUPool, replay

SCALE = 4
#: Pages of the shared pool: below partition [2, 4]'s 22 forward leaves.
CAPACITY = 20
#: Shared-pool misses of the second pass over the 40 bindings.
SECOND_PASS_MISSES = 166


class RecordingBuffer:
    """Forwards every touch to ``inner`` and remembers it."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.stats = inner.stats
        self.touched: list[tuple[object, bool]] = []

    def touch(self, page_id, category: str = "page") -> bool:
        self.touched.append((page_id, False))
        return self.inner.touch(page_id, category)

    def touch_many(self, page_ids, category: str = "page") -> int:
        page_ids = list(page_ids)
        self.touched += [(page_id, False) for page_id in page_ids]
        return self.inner.touch_many(page_ids, category)

    def touch_write(self, page_id, category: str = "page") -> bool:
        self.touched.append((page_id, True))
        return self.inner.touch_write(page_id, category)


@pytest.fixture(scope="module")
def world():
    profile = ApplicationProfile(
        c=tuple(c * SCALE for c in SMALL_PROFILE.c),
        d=tuple(d * SCALE for d in SMALL_PROFILE.d),
        fan=SMALL_PROFILE.fan,
        size=SMALL_PROFILE.size,
    )
    generated = ChainGenerator(7).generate(profile)
    path = generated.path
    asr = AccessSupportRelation.build(
        generated.db,
        path,
        Extension.FULL,
        Decomposition.of(*(path.column_of(i) for i in TYPE_BORDERS)),
    )
    return generated, asr


def test_pool_is_smaller_than_the_scanned_partition(world):
    _generated, asr = world
    assert asr.partitions[1].forward_tree.leaf_count() == 22 > CAPACITY


def test_lirs_halves_lru_misses_on_the_partition_scan(world):
    generated, asr = world
    queries = bindings(generated, 0, 3, "bw") + bindings(generated, 0, 4, "bw")
    oracle = QueryEvaluator(generated.db)
    pool = ContextPool(CAPACITY)
    misses = []
    with pool.context() as context:
        recorder = RecordingBuffer(context.current_buffer)
        evaluator = QueryEvaluator(
            generated.db, generated.store, context=ExecutionContext(buffer=recorder)
        )
        for _ in range(2):
            before = pool.pool.misses
            for query in queries:
                answer = evaluator.evaluate_supported(query, asr).cells
                assert answer == oracle.evaluate_unsupported(query).cells
            misses.append(pool.pool.misses - before)
    pool.pool.check_invariants()
    assert pool.check_accounting()["ok"]
    assert misses[1] == SECOND_PASS_MISSES

    # The same touch sequence through the LRU the pool used to be.
    half = len(recorder.touched) // 2
    lru = ReferenceLRUPool(AccessStats(), CAPACITY)
    replay(lru, recorder.touched[:half])
    before = lru.misses
    replay(lru, recorder.touched[half:])
    assert misses[1] < (lru.misses - before) / 2
