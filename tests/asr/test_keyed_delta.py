"""``apply_delta`` keys each extension row once and cuts partition keys from it.

Every :func:`cell_key` is a pair, so a partition's slice
``row_key(row)[2*first : 2*last + 2]`` is its projection's
:func:`row_key`, and the projection's tree keys are that slice with its
first or last pair as prefix.  ``apply_delta`` also applies each side in
``row_key`` order whatever order it comes in.  On 96-byte pages, where
a few rows split, borrow and merge, the delta leaves the same reference
counts, tree items and charged pages — by category — whether it gets a
set, a shuffled list or a sorted list, and the same as the per-row
public path (``remove_projection`` / ``add_projection`` of each
projection, in ``row_key`` order).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import AccessSupportRelation, Decomposition, Extension
from repro.asr.asr import row_key, tree_keys
from repro.gom import NULL, OID, PathExpression, Schema
from repro.storage.stats import AccessStats, BufferScope

PAGE_SIZE, OID_SIZE = 96, 8
WIDTH = 5


def chain_path() -> PathExpression:
    """``T0.A.A.A.Payload``: five columns, borders 0-4."""
    schema = Schema()
    schema.define_tuple("T3", {"Payload": "INTEGER"})
    for level in (2, 1, 0):
        schema.define_tuple(f"T{level}", {"A": f"T{level + 1}"})
    schema.validate()
    return PathExpression.parse(schema, "T0.A.A.A.Payload")


PATH = chain_path()
DESIGNS = [
    Decomposition.binary(PATH.m),
    Decomposition.none(PATH.m),
    Decomposition.of(0, 2, 4),
    Decomposition.of(0, 3, 4),
]

#: Cells of every kind :func:`cell_key` ranks.  ``True == 1`` and
#: ``False == 0`` although their keys differ, so numbers equal to 0 or 1
#: are left out: two such cells would be one row to a set, two to a tree.
_NUMBER = st.one_of(
    st.integers(-50, 50), st.floats(-50, 50, allow_nan=False)
).filter(lambda value: value not in (0, 1))
CELLS = st.one_of(
    st.integers(0, 6).map(OID),
    st.just(NULL),
    st.booleans(),
    _NUMBER,
    st.text("ab", max_size=2),
)
ROWS = st.tuples(*[CELLS] * WIDTH)


@settings(max_examples=40, deadline=None)
@given(ROWS)
def test_sliced_keys_are_the_projections_tree_keys(row):
    key = row_key(row)
    for first in range(WIDTH):
        for last in range(first + 1, WIDTH):
            cut = key[2 * first : 2 * last + 2]
            assert cut == row_key(row[first : last + 1])
            assert tree_keys(row[first : last + 1]) == ((cut[:2], cut), (cut[-2:], cut))


def state(asr: AccessSupportRelation, stats: AccessStats) -> tuple:
    """What a delta leaves: counts, tree items and charged pages."""
    for partition in asr.partitions:
        partition.forward_tree.check_invariants()
        partition.backward_tree.check_invariants()
    return (
        asr.tuple_count,
        [dict(partition._counts) for partition in asr.partitions],
        [list(partition.forward_tree.items()) for partition in asr.partitions],
        [list(partition.backward_tree.items()) for partition in asr.partitions],
        stats.page_reads,
        stats.page_writes,
        dict(stats.by_category),
    )


def per_row(asr: AccessSupportRelation, rows, apply: str, buffer) -> None:
    """One side of a delta through each partition's public per-row path."""
    for row in sorted(rows, key=row_key):
        for partition in asr.partitions:
            projected = partition.project(row)
            if projected is not None:
                getattr(partition, apply)(projected, buffer)
    asr.tuple_count += len(rows) if apply == "add_projection" else -len(rows)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(DESIGNS),
    st.sets(ROWS, max_size=14),
    st.sets(ROWS, max_size=10),
    st.randoms(use_true_random=False),
)
def test_a_delta_does_not_depend_on_the_order_it_comes_in(design, base, extra, rnd):
    removed = {row for row in base if rnd.random() < 0.5}
    added = extra - (base - removed)
    forms = {
        "set": lambda rows: set(rows),
        "shuffled": lambda rows: rnd.sample(sorted(rows, key=row_key), len(rows)),
        "sorted": lambda rows: sorted(rows, key=row_key),
    }
    states = {}
    for name, form in [*forms.items(), ("per-row", None)]:
        asr = AccessSupportRelation(PATH, Extension.FULL, design, PAGE_SIZE, OID_SIZE)
        stats = AccessStats()
        # One scope per side, as the manager applies them.  A page is a
        # node's id, and a scope spanning both sides could see a node
        # split off by an insert take the id of one merged away by a
        # delete: the charge would then hang on the allocator.
        if form is None:
            per_row(asr, base, "add_projection", None)
            per_row(asr, removed, "remove_projection", BufferScope(stats))
            per_row(asr, added, "add_projection", BufferScope(stats))
        else:
            asr.apply_delta(form(base), (), None)
            asr.apply_delta((), form(removed), BufferScope(stats))
            asr.apply_delta(form(added), (), BufferScope(stats))
        states[name] = state(asr, stats)
    assert states["set"] == states["shuffled"] == states["sorted"] == states["per-row"]
    # Both sides in one call: removed first, then added.
    asr = AccessSupportRelation(PATH, Extension.FULL, design, PAGE_SIZE, OID_SIZE)
    asr.apply_delta(base, ())
    asr.apply_delta(list(added), list(removed))
    assert state(asr, AccessStats())[:4] == states["set"][:4]


def test_a_delta_splits_and_merges_the_trees():
    """The property's rows reach the rebalancing the page counts depend on."""
    rows = {(OID(i), OID(i + 1), i + 2, "a", True) for i in range(2, 40)}
    asr = AccessSupportRelation(
        PATH, Extension.FULL, Decomposition.binary(PATH.m), PAGE_SIZE, OID_SIZE
    )
    asr.apply_delta(rows, ())
    heights = [partition.forward_tree.height for partition in asr.partitions]
    assert max(heights) > 1
    stats = AccessStats()
    asr.apply_delta((), rows, BufferScope(stats))
    assert asr.tuple_count == 0 and stats.page_writes > 0
    assert all(not partition._counts for partition in asr.partitions)
    assert all(partition.forward_tree.height == 1 for partition in asr.partitions)
