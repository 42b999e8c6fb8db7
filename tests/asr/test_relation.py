"""Unit and property tests for the relational algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr.relation import JoinKind, Relation, fold_join, fold_join_right
from repro.errors import RelationError
from repro.gom.objects import OID
from repro.gom.types import NULL


def rel(columns, rows):
    return Relation(columns, rows)


A, B, C, D, E = (OID(i) for i in range(5))


class TestBasics:
    def test_add_and_contains(self):
        r = rel(["x", "y"], [(A, B)])
        assert (A, B) in r
        assert len(r) == 1

    def test_arity_checked(self):
        r = rel(["x", "y"], [])
        with pytest.raises(RelationError):
            r.add((A,))

    def test_rows_deduplicated(self):
        r = rel(["x"], [(A,), (A,)])
        assert len(r) == 1

    def test_equality_ignores_labels(self):
        assert rel(["x"], [(A,)]) == rel(["y"], [(A,)])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(rel(["x"], []))


class TestJoins:
    def setup_method(self):
        self.left = rel(["a", "b"], [(A, B), (C, D)])
        self.right = rel(["b", "c"], [(B, E)])

    def test_natural_join(self):
        joined = self.left.join(self.right, JoinKind.NATURAL)
        assert joined.rows == {(A, B, E)}
        assert joined.columns == ("a", "b", "c")

    def test_left_outer_join(self):
        joined = self.left.join(self.right, JoinKind.LEFT_OUTER)
        assert joined.rows == {(A, B, E), (C, D, NULL)}

    def test_right_outer_join(self):
        extra = rel(["b", "c"], [(B, E), (D, A), (E, C)])
        joined = self.left.join(extra, JoinKind.RIGHT_OUTER)
        assert joined.rows == {(A, B, E), (C, D, A), (NULL, E, C)}

    def test_full_outer_join(self):
        extra = rel(["b", "c"], [(E, C)])
        joined = self.left.join(extra, JoinKind.FULL_OUTER)
        assert joined.rows == {(A, B, NULL), (C, D, NULL), (NULL, E, C)}

    def test_null_keys_never_match(self):
        left = rel(["a", "b"], [(A, NULL)])
        right = rel(["b", "c"], [(NULL, C)])
        assert left.join(right, JoinKind.NATURAL).rows == set()
        assert left.join(right, JoinKind.FULL_OUTER).rows == {
            (A, NULL, NULL),
            (NULL, NULL, C),
        }

    def test_many_to_many(self):
        left = rel(["a", "b"], [(A, B), (C, B)])
        right = rel(["b", "c"], [(B, D), (B, E)])
        joined = left.join(right, JoinKind.NATURAL)
        assert len(joined) == 4

    def test_zero_arity_rejected(self):
        with pytest.raises(RelationError):
            fold_join([], JoinKind.NATURAL)


class TestProjectionsAndSelections:
    def test_project_dedups(self):
        r = rel(["a", "b"], [(A, B), (A, C)])
        assert r.project([0]).rows == {(A,)}

    def test_project_drops_all_null(self):
        r = rel(["a", "b"], [(NULL, B), (NULL, NULL)])
        assert r.project([0]).rows == set()

    def test_slice(self):
        r = rel(["a", "b", "c"], [(A, B, C)])
        assert r.slice(1, 2).rows == {(B, C)}

    def test_project_out_of_range(self):
        r = rel(["a"], [])
        with pytest.raises(RelationError):
            r.project([1])

    def test_select_and_where(self):
        r = rel(["a", "b"], [(A, B), (C, D)])
        assert r.where(lambda row: row[0] == A).rows == {(A, B)}
        assert r.where(lambda row: row[1] == D).rows == {(C, D)}

    def test_distinct_ignores_null(self):
        r = rel(["a"], [(A,), (NULL,)])
        assert r.distinct(0) == {A}

    def test_complete_rows(self):
        r = rel(["a", "b"], [(A, B), (A, NULL)])
        assert r.complete_rows().rows == {(A, B)}

    def test_pretty_contains_rows(self):
        text = rel(["a", "b"], [(A, B)]).pretty()
        assert "a | b" in text
        assert "i0 | i1" in text


# ----------------------------------------------------------------------
# property-based: joins against a brute-force oracle
# ----------------------------------------------------------------------

cells = st.one_of(st.just(NULL), st.integers(0, 5).map(OID))
pairs = st.frozensets(st.tuples(cells, cells), max_size=12)


def brute_force_join(left_rows, right_rows, kind):
    result = set()
    matched_right = set()
    for l in left_rows:
        hits = [r for r in right_rows if l[-1] is not NULL and r[0] == l[-1]]
        for r in hits:
            result.add(l + r[1:])
            matched_right.add(r)
        if not hits and kind in (JoinKind.LEFT_OUTER, JoinKind.FULL_OUTER):
            result.add(l + (NULL,))
    if kind in (JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER):
        for r in right_rows:
            if r not in matched_right:
                result.add((NULL,) + r)
    return result


@settings(max_examples=200)
@given(pairs, pairs, st.sampled_from(list(JoinKind)))
def test_join_matches_brute_force(left_rows, right_rows, kind):
    left = rel(["a", "b"], left_rows)
    right = rel(["b", "c"], right_rows)
    assert left.join(right, kind).rows == brute_force_join(
        left.rows, right.rows, kind
    )


@settings(max_examples=100)
@given(pairs, pairs, pairs)
def test_natural_join_associative(r1, r2, r3):
    a, b, c = rel(["a", "b"], r1), rel(["b", "c"], r2), rel(["c", "d"], r3)
    left_first = a.join(b).join(c)
    right_first = a.join(b.join(c))
    assert left_first.rows == right_first.rows
    assert fold_join([a, b, c], JoinKind.NATURAL).rows == left_first.rows
    assert fold_join_right([a, b, c], JoinKind.NATURAL).rows == left_first.rows
