"""Tree keys with a flat row key order rows exactly as the nested keys did.

Tree keys used to be ``(cell_key(cell), tuple(cell_key(c) for c in
row))``: a tie-break holding one 2-tuple per cell.  The tie-break is now
the flat :func:`repro.asr.asr.row_key` (:func:`repro.asr.asr.tree_keys`).
Because every :func:`cell_key` has length 2, the two encodings must
compare every pair of rows — and every row against every scan bound,
and against a key made beside a stored one as ``(key[0], key[1] +
((9, 0),))`` — the same way, which is what keeps leaf layouts and page
counts where they were.  The nested form is kept here as the reference.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr.asr import (
    _ABOVE_NULL,
    BOTTOM,
    TOP,
    cell_key,
    prefix_bounds,
    row_key,
    tree_keys,
)
from repro.gom import NULL, OID


def nested_tree_keys(row) -> tuple[tuple, tuple]:
    nested = tuple(cell_key(cell) for cell in row)
    return (cell_key(row[0]), nested), (cell_key(row[-1]), nested)


def beside(key) -> tuple:
    """An unused key right after ``key``, made as the benchmark ladder does."""
    return key[0], key[1] + ((9, 0),)


def sign(a, b) -> int:
    return (a > b) - (a < b)


cells = st.one_of(
    st.just(NULL),
    st.integers(0, 2**62).map(OID),
    st.booleans(),
    st.integers(-(2**53), 2**53),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
bounds = st.one_of(st.sampled_from([BOTTOM, TOP]), cells)


@st.composite
def rows_of_one_arity(draw):
    arity = draw(st.integers(2, 5))
    return draw(st.lists(st.tuples(*[cells] * arity), min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(rows_of_one_arity(), st.lists(bounds, max_size=6))
def test_keys_order_rows_and_bounds_like_nested_keys(rows, range_ends):
    prefixes: dict = {}
    flat = [tree_keys(row) for row in rows]
    assert flat == [tree_keys(row, prefixes) for row in rows]
    nested = [nested_tree_keys(row) for row in rows]
    for side in (0, 1):
        for i, row in enumerate(rows):
            border = row[0] if side == 0 else row[-1]
            assert flat[i][side] == (cell_key(border), row_key(row))
            for j in range(len(rows)):
                assert sign(flat[i][side], flat[j][side]) == sign(
                    nested[i][side], nested[j][side]
                ), (row, rows[j])
                assert sign(beside(flat[i][side]), flat[j][side]) == sign(
                    beside(nested[i][side]), nested[j][side]
                ), (row, rows[j])
        # A value range starts or stops at ``(cell key, ())`` (never
        # below ``_ABOVE_NULL``), a prefix scan at ``prefix_bounds``:
        # each bound must fall between the same rows in both encodings.
        for end in range_ends:
            scan_bounds = [
                (cell_key(end), ()),
                (max(cell_key(end), _ABOVE_NULL), ()),
                *prefix_bounds(end),
            ]
            for bound in scan_bounds:
                for i in range(len(rows)):
                    assert sign(bound, flat[i][side]) == sign(
                        bound, nested[i][side]
                    ), (end, rows[i])


def test_sorting_by_either_encoding_gives_one_order():
    rows = [
        (OID(2), "b", NULL),
        (NULL, 1.5, OID(0)),
        (True, 1, "a"),
        (OID(2), "a", 3),
        (False, -2.0, 2),
        (OID(1), NULL, False),
    ]
    for side in (0, 1):
        assert sorted(rows, key=lambda r: tree_keys(r)[side]) == sorted(
            rows, key=lambda r: nested_tree_keys(r)[side]
        )
