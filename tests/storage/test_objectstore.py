"""Type-clustered object store: layout, accounting, event wiring."""

import pytest

from repro.errors import StorageError
from repro.gom import ObjectBase, Schema
from repro.storage.objectstore import ClusteredObjectStore
from repro.storage.stats import AccessStats, BufferScope


@pytest.fixture()
def db():
    schema = Schema()
    schema.define_tuple("Big", {"Name": "STRING"})
    schema.define_tuple("Small", {"Name": "STRING"})
    schema.validate()
    return ObjectBase(schema)


class TestLayout:
    def test_objects_per_page_by_type(self, db):
        store = ClusteredObjectStore({"Big": 2000, "Small": 100})
        assert store.objects_per_page("Big") == 2
        assert store.objects_per_page("Small") == 40
        assert store.objects_per_page("Unknown") == 40  # default 100 bytes

    def test_pages_of_type(self, db):
        store = ClusteredObjectStore({"Big": 2000})
        oids = [db.new("Big") for _ in range(5)]
        for oid in oids:
            store.register(oid, "Big")
        assert store.pages_of_type("Big") == 3  # 2 per page

    def test_page_of_is_clustered(self, db):
        store = ClusteredObjectStore({"Big": 2000})
        a, b, c = (db.new("Big") for _ in range(3))
        for oid in (a, b, c):
            store.register(oid, "Big")
        assert store.page_of(a, "Big") == store.page_of(b, "Big")
        assert store.page_of(c, "Big") != store.page_of(a, "Big")

    def test_double_register_rejected(self, db):
        store = ClusteredObjectStore()
        oid = db.new("Big")
        store.register(oid, "Big")
        with pytest.raises(StorageError):
            store.register(oid, "Big")

    def test_unregister_frees_slot(self, db):
        store = ClusteredObjectStore({"Big": 2000})
        a = db.new("Big")
        store.register(a, "Big")
        store.unregister(a, "Big")
        assert store.pages_of_type("Big") == 0
        b = db.new("Big")
        store.register(b, "Big")  # reuses the freed slot
        assert store.pages_of_type("Big") == 1

    def test_access_unknown_oid(self, db):
        store = ClusteredObjectStore()
        oid = db.new("Big")
        stats = AccessStats()
        with pytest.raises(StorageError):
            store.access(oid, "Big", BufferScope(stats))


class TestAccounting:
    def test_access_charges_distinct_pages(self, db):
        store = ClusteredObjectStore({"Small": 100})
        oids = [db.new("Small") for _ in range(80)]  # 2 pages worth
        for oid in oids:
            store.register(oid, "Small")
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            for oid in oids:
                store.access(oid, "Small", buffer)
        assert stats.page_reads == 2

    def test_scan_type(self, db):
        store = ClusteredObjectStore({"Small": 100})
        for _ in range(100):
            store.register(db.new("Small"), "Small")
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            store.scan_type("Small", buffer)
        assert stats.page_reads == store.pages_of_type("Small")

    def test_write_charges(self, db):
        store = ClusteredObjectStore()
        oid = db.new("Big")
        store.register(oid, "Big")
        stats = AccessStats()
        with BufferScope(stats) as buffer:
            store.write(oid, "Big", buffer)
        assert stats.page_writes == 1

    def test_none_buffer_is_free(self, db):
        store = ClusteredObjectStore()
        oid = db.new("Big")
        store.register(oid, "Big")
        store.access(oid, "Big", None)  # must not raise


class TestEventWiring:
    def test_attach_registers_existing_and_future(self, db):
        existing = db.new("Big")
        store = ClusteredObjectStore({"Big": 2000})
        store.attach(db)
        later = db.new("Big")
        assert store.page_of(existing, "Big") is not None
        assert store.page_of(later, "Big") is not None
        db.delete(later)
        assert store.pages_of_type("Big") == 1
