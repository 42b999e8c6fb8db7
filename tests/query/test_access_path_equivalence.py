"""Compiled access paths answer and charge exactly as the per-call split.

``QueryEvaluator.evaluate_supported`` runs the Eq. 33/34 steps an ASR
compiled once for the query's shape.  Over every extension, four
decompositions (none, binary, type borders, a column border on a
set-valued step), every supported ``(i, j)``, both directions and both
entries of a backward query (one target, a value range), with NULL
borders from dangling paths, it must return the cells of the reference
(:mod:`tests.query.reference_supported`) and touch the same pages in the
same order.  The second half checks that a compiled path never outlives
the trees it reads: after a rebuild, a recovery, a replace or a
re-materialization, answers come from the trees in place now.
"""

import random

import pytest

from repro.asr import ASRManager, AccessSupportRelation, Decomposition, Extension
from repro.context import ExecutionContext
from repro.costmodel import ApplicationProfile
from repro.errors import SimulatedCrash
from repro.faults import FaultInjector
from repro.gom import NULL, PathExpression
from repro.query import (
    BackwardQuery,
    ForwardQuery,
    Planner,
    QueryEvaluator,
    ValueRangeQuery,
)
from repro.storage.stats import AccessStats
from repro.workload import ChainGenerator
from tests.query.reference_supported import reference_supported
from tests.storage.reference_walker import RecordingBuffer

#: Steps 0, 2 and 3 set-valued, step 1 single-valued; ``d < c`` leaves
#: dangling objects, so partial rows carry NULL borders.
PROFILE = ApplicationProfile(
    c=(14, 16, 18, 20, 24), d=(11, 12, 13, 15), fan=(2, 1, 2, 2), size=(120,) * 5
)
#: Small pages: several leaves and an interior level per tree.
PAGE_SIZE = 192


class RecordingScope(RecordingBuffer):
    """A recording buffer an :class:`ExecutionContext` can own."""

    def __init__(self) -> None:
        super().__init__()
        self.stats = AccessStats()


def world(seed: int = 17):
    generated = ChainGenerator(seed=seed).generate(PROFILE)
    db = generated.db
    chain = generated.path
    payload = PathExpression(db.schema, "T0", ("A",) * chain.n + ("Payload",))
    return generated, chain, payload


def decompositions(path) -> dict:
    """The four decompositions, as column borders over ``path``."""
    types = tuple(path.column_of(i) for i in (0, 2, 4))
    if types[-1] != path.m:
        types += (path.m,)
    # SET_T1 (column 1) sits between T0 and T1: a border on a set-valued step.
    collection = path.column_of(1) - 1
    assert path.columns[collection].step_index == 1 and collection > 0
    return {
        "none": Decomposition.none(path.m),
        "binary": Decomposition.binary(path.m),
        "types": Decomposition(types),
        "set-column": Decomposition.of(0, collection, path.column_of(3), path.m),
    }


def queries(generated, path, asr) -> list:
    """Every supported ``(i, j)``: forward, backward and value-range entries."""
    db, layers, n = generated.db, generated.layers, path.n
    rng = random.Random(5)
    values = sorted(db.attr(oid, "Payload") for oid in layers[-1])
    rows = sorted(asr.recompose().rows, key=repr)

    def stored(type_index: int) -> list:
        """Two non-NULL cells of ``t_i``'s column, then one anywhere."""
        column = path.column_of(type_index)
        cells = sorted({row[column] for row in rows} - {NULL}, key=repr)
        anywhere = layers[type_index] if type_index < len(layers) else values
        return rng.sample(cells, min(2, len(cells))) + [rng.choice(anywhere)]

    out = []
    for i in range(n):
        for j in range(i + 1, n + 1):
            if not asr.supports_query(i, j):
                continue
            starts = stored(i) + [NULL]
            out += [ForwardQuery(path, i, j, start=start) for start in starts]
            targets = stored(j) + [NULL]
            out += [BackwardQuery(path, i, j, target=target) for target in targets]
            if j == n and path.terminal_is_atomic:
                for lo, hi in (
                    (values[2], values[9]),
                    (NULL, values[4]),
                    (values[-3], 10**7),
                    (5, 5),
                ):
                    out.append(ValueRangeQuery(path, i, j, lo=lo, hi=hi))
    return out


GENERATED, CHAIN, PAYLOAD = world()
PATHS = {"chain": CHAIN, "payload": PAYLOAD}


@pytest.mark.parametrize("design", ["none", "binary", "types", "set-column"])
@pytest.mark.parametrize("extension", list(Extension), ids=lambda e: e.value)
@pytest.mark.parametrize("path_name", list(PATHS))
def test_access_path_matches_the_reference(path_name, extension, design):
    path = PATHS[path_name]
    asr = AccessSupportRelation.build(
        GENERATED.db, path, extension, decompositions(path)[design], PAGE_SIZE
    )
    assert any(
        cell is NULL for partition in asr.partitions for row in partition.rows()
        for cell in row
    ) == (extension is not Extension.CANONICAL)
    asked = queries(GENERATED, path, asr)
    assert asked
    nonempty = 0
    for query in asked:
        scope = RecordingScope()
        evaluator = QueryEvaluator(GENERATED.db, context=ExecutionContext(scope))
        expected = RecordingBuffer()
        # Twice: the second run goes through the memoised path.
        for _ in range(2):
            scope.touched.clear()
            cells = evaluator.evaluate_supported(query, asr).cells
            assert cells == reference_supported(query, asr, expected), query
            assert scope.touched == expected.touched, query
            expected.touched.clear()
        nonempty += bool(cells)
    assert nonempty > len(asked) // 4


# ----------------------------------------------------------------------
# staleness: a compiled path reads the trees in place now
# ----------------------------------------------------------------------


class Served:
    """A managed chain world, its ASR and a planner over it."""

    def __init__(self) -> None:
        self.generated, self.path, _ = world(seed=29)
        self.db = self.generated.db
        self.injector = FaultInjector()
        self.manager = ASRManager(self.db, fault_injector=self.injector)
        self.asr = self.manager.create(
            self.path, Extension.FULL, decompositions(self.path)["types"]
        )
        self.planner = Planner(self.manager)
        self.evaluator = QueryEvaluator(self.db)
        rng = random.Random(3)
        layers, path = self.generated.layers, self.path
        self.asked = [
            BackwardQuery(path, 0, 4, target=t) for t in layers[4]
        ] + [
            BackwardQuery(path, 0, 3, target=t) for t in rng.sample(layers[3], 6)
        ] + [
            ForwardQuery(path, 1, 2, start=s) for s in rng.sample(layers[1], 6)
        ] + [
            ForwardQuery(path, 0, 4, start=s) for s in layers[0]
        ]

    def answers(self, asr=None) -> list:
        """Every query through ``asr`` (the planner's pick when ``None``)."""
        if asr is None:
            return [
                self.planner.execute(q, self.evaluator).cells for q in self.asked
            ]
        return [self.evaluator.evaluate_supported(q, asr).cells for q in self.asked]

    def truth(self) -> list:
        return [self.evaluator.evaluate_unsupported(q).cells for q in self.asked]

    def link(self) -> None:
        """Add T0 -> T1 edges that move answers (the caller maintains or not)."""
        db, layers = self.db, self.generated.layers
        for owner in layers[0]:
            members = db.attr(owner, "A")
            if members is NULL:
                continue
            for stranger in layers[1]:
                if stranger not in db.members(members):
                    db.set_insert(members, stranger)
                    break


def test_rebuild_reloads_what_the_compiled_paths_read():
    served = Served()
    # Built outside the manager, so nothing maintains it.
    stale = AccessSupportRelation.build(
        served.db, served.path, Extension.FULL, served.asr.decomposition
    )
    before = served.answers(stale)
    served.link()
    after = served.truth()
    assert after != before
    stale.rebuild(served.db)  # swaps every tree the compiled paths read
    assert served.answers(stale) == after
    assert served.answers() == after


def test_recovery_reloads_what_the_compiled_paths_read():
    served = Served()
    served.answers(served.asr)
    served.injector.crash_at("asr.flush.mid-delta", on_hit=1)
    with pytest.raises(SimulatedCrash):
        with served.manager.batch():
            served.link()
    assert served.asr.quarantined
    assert served.manager.recover() == 1
    truth = served.truth()
    assert served.answers(served.asr) == truth
    assert served.answers() == truth


@pytest.mark.parametrize("swap", ["replace", "rematerialize"])
def test_a_swapped_asr_serves_the_next_decision(swap):
    served = Served()
    old, manager = served.asr, served.manager
    served.answers()
    # Undecomposed: one lookup per query, priced below the traversal.
    none = Decomposition.none(served.path.m)
    if swap == "replace":
        new = AccessSupportRelation.build(served.db, served.path, Extension.FULL, none)
        manager.replace(old, new)
    else:
        new = manager.rematerialize(old, Extension.FULL, none)
    assert manager.asrs == [new]
    served.link()  # maintained into ``new`` only
    truth = served.truth()
    assert served.answers(old) != truth
    assert served.answers(new) == truth
    results = [served.planner.execute(q, served.evaluator) for q in served.asked]
    assert [result.cells for result in results] == truth
    strategies = {result.strategy for result in results}
    assert f"asr:{new.design}" in strategies
    assert strategies <= {f"asr:{new.design}", "unsupported"}
