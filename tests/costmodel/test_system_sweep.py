"""The cost model under non-default system parameters.

The paper fixes PageSize = 4056 / OIDsize = 8 / PPsize = 4; the model
must stay well-formed — and its qualitative orderings stable — under
other plausible geometries (1 KiB and 16 KiB pages, fat OIDs).
"""

import pytest

from repro.asr import Decomposition, Extension
from repro.costmodel import (
    ApplicationProfile,
    QueryCostModel,
    StorageModel,
    SystemParameters,
    UpdateCostModel,
)

PROFILE = ApplicationProfile(
    c=(1000, 5000, 10000, 50000, 100000),
    d=(900, 4000, 8000, 20000),
    fan=(2, 2, 3, 4),
    size=(500, 400, 300, 300, 100),
)

GEOMETRIES = [
    SystemParameters(page_size=1024, oid_size=8, pp_size=4),
    SystemParameters(page_size=4056, oid_size=8, pp_size=4),
    SystemParameters(page_size=16384, oid_size=16, pp_size=8),
]

BI = Decomposition.binary(4)
NODEC = Decomposition.none(4)


@pytest.mark.parametrize("system", GEOMETRIES, ids=["1k", "paper", "16k"])
class TestGeometrySweep:
    def test_storage_well_formed(self, system):
        storage = StorageModel(PROFILE, system)
        for extension in Extension:
            for dec in (BI, NODEC):
                assert storage.relation_bytes(extension, dec) > 0
                assert sum(storage.ap(extension, a, b) for a, b in dec.partitions) >= 1
            for i, j in [(0, 4), (1, 3)]:
                assert storage.ht(extension, i, j) >= 0
                assert storage.nlp(extension, i, j) >= 1

    def test_query_orderings_stable(self, system):
        model = QueryCostModel(PROFILE, system)
        scan = model.qnas(0, 4, "bw")
        for extension in Extension:
            supported = model.q(extension, 0, 4, "bw", BI)
            assert 0 < supported < scan
            # Non-decomposed stays at most as costly as binary for the
            # whole-path lookup regardless of geometry.
            assert model.q(extension, 0, 4, "bw", NODEC) <= supported

    def test_update_orderings_stable(self, system):
        model = UpdateCostModel(PROFILE, system)
        left = model.total(Extension.LEFT, 3, BI)
        right = model.total(Extension.RIGHT, 3, BI)
        full = model.total(Extension.FULL, 3, BI)
        can = model.total(Extension.CANONICAL, 3, BI)
        assert left < right
        assert full < can

    def test_bytes_independent_of_page_size(self, system):
        """Relation byte sizes depend on OID size, not page size."""
        storage = StorageModel(PROFILE, system)
        reference = StorageModel(
            PROFILE, SystemParameters(page_size=2048, oid_size=system.oid_size)
        )
        for extension in Extension:
            assert storage.relation_bytes(extension, NODEC) == pytest.approx(
                reference.relation_bytes(extension, NODEC)
            )


class TestPageSizeEffects:
    def test_bigger_pages_fewer_accesses(self):
        small = QueryCostModel(PROFILE, SystemParameters(page_size=1024))
        large = QueryCostModel(PROFILE, SystemParameters(page_size=16384))
        assert large.qnas(0, 4, "bw") < small.qnas(0, 4, "bw")
        assert large.q(Extension.FULL, 0, 4, "bw", BI) <= small.q(
            Extension.FULL, 0, 4, "bw", BI
        )

    def test_fanout_scales_with_page_size(self):
        assert (
            SystemParameters(page_size=16384).btree_fanout
            > SystemParameters(page_size=1024).btree_fanout
        )
