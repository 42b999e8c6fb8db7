"""Application/system parameters (Figure 3) and their derivations."""

import pytest

from repro.costmodel import ApplicationProfile, SystemParameters
from repro.errors import CostModelError


class TestSystemParameters:
    def test_paper_defaults(self):
        system = SystemParameters()
        assert system.page_size == 4056
        assert system.oid_size == 8
        assert system.pp_size == 4
        assert system.btree_fanout == 338

    def test_validation(self):
        with pytest.raises(CostModelError):
            SystemParameters(page_size=0)


@pytest.fixture()
def profile():
    return ApplicationProfile(
        c=(1000, 5000, 10000, 50000, 100000),
        d=(900, 4000, 8000, 20000),
        fan=(2, 2, 3, 4),
        size=(500, 400, 300, 300, 100),
    )


class TestValidation:
    def test_n(self, profile):
        assert profile.n == 4

    def test_length_mismatches(self):
        with pytest.raises(CostModelError):
            ApplicationProfile(c=(1, 2, 3), d=(1,), fan=(1, 1))
        with pytest.raises(CostModelError):
            ApplicationProfile(c=(1, 2), d=(1,), fan=(1,), size=(1,))
        with pytest.raises(CostModelError):
            ApplicationProfile(c=(1, 2), d=(1,), fan=(1,), shar=(1, 1))

    def test_d_bounded_by_c(self):
        with pytest.raises(CostModelError):
            ApplicationProfile(c=(10, 10), d=(11,), fan=(1,))

    def test_positive_counts(self):
        with pytest.raises(CostModelError):
            ApplicationProfile(c=(0, 10), d=(0,), fan=(1,))
        with pytest.raises(CostModelError):
            ApplicationProfile(c=(10, 10), d=(1,), fan=(-1,))
        with pytest.raises(CostModelError):
            ApplicationProfile(c=(10, 10), d=(1,), fan=(1,), size=(0, 1))

    def test_single_step_minimum(self):
        with pytest.raises(CostModelError):
            ApplicationProfile(c=(10,), d=(), fan=())

    def test_index_guards(self, profile):
        with pytest.raises(CostModelError):
            profile.d_(4)
        with pytest.raises(CostModelError):
            profile.fan_(-1)
        with pytest.raises(CostModelError):
            profile.c_(5)
        with pytest.raises(CostModelError):
            profile.e_(0)

    def test_missing_sizes(self):
        bare = ApplicationProfile(c=(10, 10), d=(5,), fan=(1,))
        with pytest.raises(CostModelError):
            bare.size_(0)


class TestDerived:
    def test_ref_i(self, profile):
        assert profile.ref_(0) == 1800
        assert profile.ref_(3) == 80000

    def test_e_bounded_by_c(self, profile):
        for i in range(1, 5):
            assert 0 < profile.e_(i) <= profile.c_(i)

    def test_default_shar_at_least_one(self, profile):
        for i in range(4):
            assert profile.shar_(i) >= 1.0

    def test_sparse_references_barely_shared(self):
        sparse = ApplicationProfile(c=(10, 100000), d=(10,), fan=(1,))
        assert sparse.shar_(0) == pytest.approx(1.0, abs=1e-3)
        assert sparse.e_(1) == pytest.approx(10, rel=1e-3)

    def test_dense_references_hit_everyone(self):
        dense = ApplicationProfile(c=(10000, 10), d=(10000,), fan=(5,))
        assert dense.e_(1) == pytest.approx(10, rel=1e-6)

    def test_explicit_shar_overrides(self):
        explicit = ApplicationProfile(c=(10, 100), d=(10,), fan=(2,), shar=(2,))
        assert explicit.shar_(0) == 2
        assert explicit.e_(1) == 10  # 10*2/2

    def test_zero_d_zero_everything(self):
        empty = ApplicationProfile(c=(10, 10), d=(0,), fan=(2,))
        assert empty.shar_(0) == 0
        assert empty.e_(1) == 0
        assert empty.ref_(0) == 0


class TestTransforms:
    def test_with_d(self, profile):
        changed = profile.with_d((1, 1, 1, 1))
        assert changed.d == (1, 1, 1, 1)
        assert changed.c == profile.c

    def test_with_fan_and_size(self, profile):
        assert profile.with_fan((9, 9, 9, 9)).fan == (9, 9, 9, 9)
        assert profile.with_size((1,) * 5).size == (1.0,) * 5

    def test_profiles_hashable(self, profile):
        assert hash(profile) == hash(
            ApplicationProfile(profile.c, profile.d, profile.fan, profile.size)
        )
