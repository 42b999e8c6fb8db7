"""Stored access support relations: partitions, trees, deltas."""

import pytest

from repro.asr import AccessSupportRelation, Decomposition, Extension
from repro.asr.asr import StoredPartition, cell_key, row_key
from repro.errors import RelationError, StorageError
from repro.gom import NULL
from repro.gom.objects import OID
from repro.storage.stats import AccessStats, BufferScope
from tests.asr.loading import bulk_load


class TestCellKeys:
    def test_total_order_across_kinds(self):
        keys = [cell_key(NULL), cell_key(OID(3)), cell_key(True), cell_key(7),
                cell_key("z")]
        assert keys == sorted(keys)

    def test_oid_ordering(self):
        assert cell_key(OID(1)) < cell_key(OID(2))

    def test_row_key_tuples(self):
        # One flat tuple: the cells' 2-element keys, concatenated.
        assert row_key((OID(1), NULL)) == cell_key(OID(1)) + cell_key(NULL)
        assert row_key((OID(1), NULL)) == (1, 1, 0, 0)


class TestStoredPartition:
    def make(self):
        return StoredPartition(0, 1, ["a", "b"])

    def test_arity_and_geometry(self):
        partition = self.make()
        assert partition.arity == 2
        assert partition.tuples_per_page == 4056 // 16

    def test_invalid_range(self):
        with pytest.raises(StorageError):
            StoredPartition(2, 2, ["a"])

    def test_bulk_load_and_lookup(self):
        partition = self.make()
        rows = [(OID(i), OID(i + 10)) for i in range(50)]
        rows.append((OID(0), OID(99)))
        bulk_load(partition, rows)
        assert partition.tuple_count == 51
        hits = partition.lookup_forward(OID(0))
        assert sorted(hits) == [(OID(0), OID(10)), (OID(0), OID(99))]
        assert partition.lookup_backward(OID(99)) == [(OID(0), OID(99))]
        assert partition.lookup_forward(OID(777)) == []

    def test_both_loaders_build_the_trees_incremental_inserts_build(self):
        rows = [(OID(i % 7), OID(i)) for i in range(40)] + [(NULL, OID(3))]
        bulk, projected, grown = self.make(), self.make(), self.make()
        bulk_load(bulk, rows)
        projected.load_from_extension(rows + rows[:5] + [(NULL, NULL)])
        bulk_load(grown, [])
        for row in rows:
            grown.add_projection(row)
        for loaded in (bulk, projected):
            assert list(loaded.forward_tree.items()) == list(grown.forward_tree.items())
            assert list(loaded.backward_tree.items()) == list(grown.backward_tree.items())
            # One key per tree per row: the clustering cell's key, then
            # the row's flat key — one tuple shared by the two trees; a
            # load also shares one prefix tuple per border cell.
            backward = {row: key for key, row in loaded.backward_tree.items()}
            prefixes: dict = {}
            for (first, key), row in loaded.forward_tree.items():
                assert key == row_key(row) and first == cell_key(row[0]) == key[:2]
                assert backward[row] == (cell_key(row[-1]), key)
                assert backward[row][1] is key
                assert prefixes.setdefault(first, first) is first
        assert projected._counts[rows[0]] == 2 and bulk._counts[rows[0]] == 1

    def test_refcounted_projection_deltas(self):
        partition = self.make()
        bulk_load(partition, [])
        row = (OID(1), OID(2))
        partition.add_projection(row)
        partition.add_projection(row)  # second witness
        assert partition.tuple_count == 1
        partition.remove_projection(row)
        assert partition.tuple_count == 1  # still one witness left
        assert partition.lookup_forward(OID(1)) == [row]
        partition.remove_projection(row)
        assert partition.tuple_count == 0
        assert partition.lookup_forward(OID(1)) == []

    def test_remove_absent_projection_rejected(self):
        partition = self.make()
        with pytest.raises(RelationError):
            partition.remove_projection((OID(1), OID(2)))

    def test_project_drops_all_null(self):
        partition = StoredPartition(1, 2, ["b", "c"])
        assert partition.project((OID(1), NULL, NULL)) is None
        assert partition.project((OID(1), NULL, OID(2))) == (NULL, OID(2))

    def test_scan_charges_pages(self):
        partition = StoredPartition(0, 1, ["a", "b"])
        bulk_load(partition, [(OID(i), OID(i)) for i in range(1000)])
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            rows = list(partition.forward_tree.range(context=buffer))
        assert len(rows) == 1000
        assert stats.page_reads >= partition.page_count

    def test_byte_size(self):
        partition = self.make()
        bulk_load(partition, [(OID(1), OID(2))])
        assert partition.byte_size == 16


class TestAccessSupportRelation:
    def test_build_partitions(self, company_world):
        db, path, _o = company_world
        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.of(0, 2, 5)
        )
        assert len(asr.partitions) == 2
        assert asr.partitions[0].labels == (
            "OID_Division", "OID_ProdSET", "OID_Product",
        )
        assert asr.tuple_count == 4

    def test_default_decomposition_is_trivial(self, company_world):
        db, path, _o = company_world
        asr = AccessSupportRelation.build(db, path, Extension.CANONICAL)
        assert asr.decomposition == Decomposition.none(path.m)

    def test_wrong_decomposition_span_rejected(self, company_world):
        db, path, _o = company_world
        with pytest.raises(Exception):
            AccessSupportRelation(path, Extension.FULL, Decomposition.of(0, 2))

    def test_partition_lookup_helpers(self, company_world):
        db, path, _o = company_world
        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.of(0, 2, 5)
        )
        assert asr.partition_at(0).first_column == 0
        with pytest.raises(StorageError):
            asr.partition_at(1)

    def test_apply_delta_round_trip(self, company_world):
        db, path, o = company_world
        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.binary(path.m)
        )
        row = (o["auto"], o["prods_auto"], o["sec"], o["parts_sec"], o["door"], "Door")
        rows = asr.tuple_count
        asr.apply_delta([], [row])
        assert row not in asr.recompose()
        assert asr.tuple_count == rows - 1
        asr.apply_delta([row], [])
        assert row in asr.recompose()
        assert asr.tuple_count == rows
        asr.consistency_check(db)

    def test_apply_delta_rejects_a_removed_row_not_stored(self, company_world):
        """Deltas are exact: a removed row must be stored.  One whose
        projection no partition holds raises."""
        db, path, o = company_world
        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.none(path.m)
        )
        row = (o["auto"], o["prods_auto"], o["sec"], o["parts_sec"], o["door"], "Gate")
        with pytest.raises(RelationError):
            asr.apply_delta([], [row])
        asr.consistency_check(db)

    def test_rebuild_after_manual_damage(self, company_world):
        db, path, _o = company_world
        asr = AccessSupportRelation.build(
            db, path, Extension.LEFT, Decomposition.binary(path.m)
        )
        partition = asr.partitions[-1]
        partition.remove_projection(next(partition.rows()))
        with pytest.raises(AssertionError):
            asr.consistency_check(db)
        asr.rebuild(db)
        asr.consistency_check(db)

    @pytest.mark.parametrize("side", ["forward_tree", "backward_tree"])
    def test_consistency_check_catches_a_key_not_encoding_its_row(
        self, company_world, side
    ):
        db, path, _o = company_world
        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.binary(path.m)
        )
        tree = getattr(asr.partitions[0], side)
        leaf = tree._leftmost_leaf()
        # Still sorted, the tree's invariants hold and every row is
        # stored — but the key no longer encodes its row.
        leaf.keys[-1] = leaf.keys[-1] + (0,)
        tree.check_invariants()
        with pytest.raises(AssertionError, match="keys"):
            asr.consistency_check(db)

    def test_consistency_check_catches_a_stale_row_in_any_partition(
        self, company_world
    ):
        db, path, _o = company_world
        for index in range(path.m):
            asr = AccessSupportRelation.build(
                db, path, Extension.FULL, Decomposition.binary(path.m)
            )
            partition = asr.partitions[index]
            # A row no object derives: every partition is held to exact
            # reference counts, so a superset of the true rows is caught.
            partition.add_projection((OID(10**6), OID(10**6 + 1)))
            with pytest.raises(AssertionError, match="reference counts drifted"):
                asr.consistency_check(db)

    def test_total_bytes_and_pages(self, company_world):
        db, path, _o = company_world
        asr = AccessSupportRelation.build(
            db, path, Extension.FULL, Decomposition.binary(path.m)
        )
        assert asr.total_bytes > 0
        assert asr.total_pages >= len(asr.partitions) - 1

    def test_supports_query_delegates(self, company_world):
        db, path, _o = company_world
        asr = AccessSupportRelation.build(db, path, Extension.LEFT)
        assert asr.supports_query(0, 2)
        assert not asr.supports_query(1, 3)
