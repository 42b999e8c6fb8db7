"""Decompositions (Def. 3.8) and losslessness (Thm. 3.9)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asr import Decomposition, Extension, build_extension
from repro.errors import DecompositionError


class TestValidation:
    def test_valid_borders(self):
        dec = Decomposition.of(0, 2, 5)
        assert dec.m == 5
        assert dec.partitions == ((0, 2), (2, 5))

    def test_must_start_at_zero(self):
        with pytest.raises(DecompositionError):
            Decomposition.of(1, 3)

    def test_strictly_increasing(self):
        with pytest.raises(DecompositionError):
            Decomposition.of(0, 2, 2)
        with pytest.raises(DecompositionError):
            Decomposition.of(0, 3, 1)

    def test_needs_two_borders(self):
        with pytest.raises(DecompositionError):
            Decomposition(())
        with pytest.raises(DecompositionError):
            Decomposition((0,))

    def test_binary_and_none(self):
        assert Decomposition.binary(4).borders == (0, 1, 2, 3, 4)
        assert Decomposition.none(4).borders == (0, 4)

    def test_all_for_counts(self):
        # 2^(m-1) decompositions of an (m+1)-column relation.
        for m in (1, 2, 3, 4, 5):
            assert len(list(Decomposition.all_for(m))) == 2 ** (m - 1)

    def test_all_for_unique_and_valid(self):
        decs = list(Decomposition.all_for(4))
        assert len({d.borders for d in decs}) == len(decs)
        for dec in decs:
            dec.validate_for(4)

    def test_validate_for_mismatch(self):
        with pytest.raises(DecompositionError):
            Decomposition.of(0, 3).validate_for(5)

    def test_str(self):
        assert str(Decomposition.of(0, 3, 4)) == "(0, 3, 4)"


class TestMaterialization:
    def test_binary_partitions_of_canonical(self, company_world):
        db, path, o = company_world
        canonical = build_extension(db, path, Extension.CANONICAL)
        partitions = Decomposition.binary(path.m).materialize(canonical)
        assert len(partitions) == path.m
        assert partitions[0].rows == {
            (o["auto"], o["prods_auto"]),
            (o["truck"], o["prods_truck"]),
        }
        assert partitions[-1].rows == {(o["door"], "Door")}

    def test_projection_drops_all_null_slices(self, company_world):
        from repro.gom import NULL

        db, path, _o = company_world
        full = build_extension(db, path, Extension.FULL)
        for dec in Decomposition.all_for(path.m):
            for partition in dec.materialize(full):
                for row in partition.rows:
                    assert any(cell is not NULL for cell in row)


class TestLosslessness:
    """Theorem 3.9: every decomposition of every extension is lossless."""

    @pytest.mark.parametrize("extension", list(Extension))
    def test_company_world_all_decompositions(self, company_world, extension):
        db, path, _o = company_world
        relation = build_extension(db, path, extension)
        for dec in Decomposition.all_for(path.m):
            partitions = dec.materialize(relation)
            recomposed = dec.recompose(partitions, extension)
            assert recomposed.rows == relation.rows, (extension, dec)

    def test_recompose_arity_checked(self, company_world):
        db, path, _o = company_world
        relation = build_extension(db, path, Extension.CANONICAL)
        dec = Decomposition.binary(path.m)
        partitions = dec.materialize(relation)
        with pytest.raises(DecompositionError):
            dec.recompose(partitions[:-1], Extension.CANONICAL)


# ----------------------------------------------------------------------
# property-based losslessness on random worlds
# ----------------------------------------------------------------------

from tests.asr.test_extensions import build_random_world  # noqa: E402

indices = st.integers(0, 3)
edges = st.frozensets(st.tuples(indices, indices), max_size=8)


@settings(max_examples=80, deadline=None)
@given(
    edges,
    edges,
    st.frozensets(indices, max_size=2),
    st.sampled_from(list(Extension)),
    st.data(),
)
def test_losslessness_random(edge01, edge12, empty_sets, extension, data):
    db, path = build_random_world(edge01, edge12, empty_sets, False)
    relation = build_extension(db, path, extension)
    decs = list(Decomposition.all_for(path.m))
    dec = data.draw(st.sampled_from(decs))
    recomposed = dec.recompose(dec.materialize(relation), extension)
    assert recomposed.rows == relation.rows
