"""``StoredPartition``'s charged reads against their row-at-a-time forms.

Every read consumes leaf slices; each must return the rows, and touch
the pages in the order, of the loop it replaced — kept here, over
``tests.storage.reference_walker``, as the reference.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr.asr import (
    _ABOVE_NULL,
    BOTTOM,
    TOP,
    StoredPartition,
    cell_key,
    row_key,
)
from repro.gom import NULL, OID
from tests.asr.loading import bulk_load
from tests.storage.reference_walker import RecordingBuffer, reference_range

#: 3 columns x 8 bytes on 96-byte pages: 4 rows per leaf, so eleven rows
#: sharing a border cell span three leaves.
PAGE_SIZE, OID_SIZE = 96, 8
ABSENT = OID(999)


def make_partition(rows) -> StoredPartition:
    partition = StoredPartition(0, 2, ("a", "b", "c"), PAGE_SIZE, OID_SIZE)
    assert partition.tuples_per_page == 4
    bulk_load(partition, rows)
    return partition


def scan(partition, buffer=None) -> list:
    """Every row of ``partition`` in forward-tree order, charging each leaf."""
    return [row for _key, row in partition.forward_tree.range(context=buffer)]


def duplicate_heavy_rows() -> list[tuple]:
    """Few distinct border cells, many rows each; NULLs on both borders."""
    rows = {
        (OID(first), OID(100 + middle), OID(200 + last))
        for first in range(3)
        for middle in range(4)
        for last in range(3)
        if (first + middle + last) % 5
    }
    rows |= {(OID(1), OID(100 + middle), NULL) for middle in range(6)}
    rows |= {(NULL, OID(150 + middle), OID(201)) for middle in range(6)}
    rows |= {(NULL, NULL, OID(202)), (OID(2), NULL, NULL)}
    return sorted(rows, key=row_key)


def reference_prefix_scan(tree, cell, buffer) -> list[tuple]:
    prefix = cell_key(cell)
    rows = []
    for key, value in reference_range(tree, (prefix, ()), None, buffer):
        if key[0] != prefix:
            break
        rows.append(value)
    return rows


def reference_backward_range(partition, lo, hi, buffer) -> list[tuple]:
    return [
        value
        for _key, value in reference_range(
            partition.backward_tree,
            (max(cell_key(lo), _ABOVE_NULL), ()),
            (cell_key(hi), ()),
            buffer,
        )
    ]


def assert_same_read(actual, expected) -> None:
    """``actual`` / ``expected``: callables from a buffer to the rows read."""
    actual_buffer, expected_buffer = RecordingBuffer(), RecordingBuffer()
    assert actual(actual_buffer) == expected(expected_buffer)
    assert actual_buffer.touched == expected_buffer.touched


def column_cells(partition, offset) -> list:
    return sorted({row[offset] for row in partition.rows()}, key=cell_key)


def check_every_read(partition: StoredPartition) -> None:
    everything = scan(partition)
    assert sorted(everything, key=repr) == sorted(partition.rows(), key=repr)
    assert_same_read(
        lambda buffer: scan(partition, buffer),
        lambda buffer: [
            value for _, value in reference_range(partition.forward_tree, None, None, buffer)
        ],
    )
    for cell in [*column_cells(partition, 0), ABSENT]:
        assert_same_read(
            lambda buffer: partition.lookup_forward(cell, buffer),
            lambda buffer: reference_prefix_scan(partition.forward_tree, cell, buffer),
        )
        assert partition.lookup_forward(cell) == [r for r in everything if r[0] == cell]
    for cell in [*column_cells(partition, 2), ABSENT]:
        assert_same_read(
            lambda buffer: partition.lookup_backward(cell, buffer),
            lambda buffer: reference_prefix_scan(partition.backward_tree, cell, buffer),
        )
        assert sorted(partition.lookup_backward(cell), key=repr) == sorted(
            (r for r in everything if r[2] == cell), key=repr
        )
    ends = [BOTTOM, NULL, *column_cells(partition, 2), ABSENT, TOP]
    for lo in ends:
        for hi in ends:
            assert_same_read(
                lambda buffer: partition.lookup_backward_range(lo, hi, buffer),
                lambda buffer: reference_backward_range(partition, lo, hi, buffer),
            )
    for offset in range(partition.arity):
        present = column_cells(partition, offset)
        for cells in (
            set(),
            {ABSENT},
            {NULL},
            {NULL, ABSENT, *present[:2]},
            set(present[1::3]),
            set(present),
        ):
            assert_same_read(
                lambda buffer: partition.forward_tree.column_probe(offset, cells, buffer),
                lambda buffer: [
                    row for row in scan(partition, buffer) if row[offset] in cells
                ],
            )
    # The column sets those selects cached equal fresh ones.
    partition.forward_tree.check_invariants()


class TestDuplicatesAcrossLeafBoundaries:
    def test_the_world_has_the_shape_the_name_promises(self):
        partition = make_partition(duplicate_heavy_rows())
        assert partition.page_count >= 10
        assert len(partition.lookup_forward(OID(1))) > 2 * partition.tuples_per_page
        assert len(partition.lookup_backward(OID(201))) > 2 * partition.tuples_per_page
        assert len(partition.lookup_backward(NULL)) > partition.tuples_per_page

    def test_bulk_loaded_partition(self):
        check_every_read(make_partition(duplicate_heavy_rows()))

    def test_partition_grown_and_shrunk_by_deltas(self):
        rows = duplicate_heavy_rows()
        rng = random.Random(5)
        rng.shuffle(rows)
        partition = make_partition([])
        for row in rows:
            partition.add_projection(row)
        for row in rows[::3]:
            partition.remove_projection(row)
        partition.forward_tree.check_invariants()
        partition.backward_tree.check_invariants()
        check_every_read(partition)

    def test_select_charges_every_leaf_whatever_the_cells(self):
        partition = make_partition(duplicate_heavy_rows())
        for cells in (set(), {ABSENT}, {OID(1)}):
            buffer = RecordingBuffer()
            partition.forward_tree.column_probe(1, cells, buffer)
            leaves = [page for page, category in buffer.touched if category == "btree_leaf"]
            assert len(leaves) == len(set(leaves)) == partition.page_count


cell = st.one_of(st.just(NULL), st.integers(0, 5).map(OID))


@settings(max_examples=60, deadline=None)
@given(st.sets(st.tuples(cell, cell, cell), max_size=60))
def test_random_partitions(rows):
    rows = {row for row in rows if any(c is not NULL for c in row)}
    check_every_read(make_partition(rows))
