"""ASRManager: registration, event routing, lifecycle, batching."""

from repro.asr import ASRManager, Decomposition, Extension
from repro.context import ExecutionContext
from repro.telemetry import MetricsRegistry


class TestRegistration:
    def test_create_registers(self, company_world):
        db, path, _o = company_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL)
        assert asr in manager.asrs
        assert manager.find(path) == [asr]
        assert manager.find(path, Extension.FULL) == [asr]
        assert manager.find(path, Extension.LEFT) == []

    def test_register_external(self, company_world):
        from repro.asr import AccessSupportRelation

        db, path, _o = company_world
        asr = AccessSupportRelation.build(db, path, Extension.LEFT)
        manager = ASRManager(db)
        manager.register(asr)
        assert manager.find(path, Extension.LEFT) == [asr]


class TestEventRouting:
    def test_updates_propagate(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        before = asr.tuple_count
        db.set_insert(o["parts_sec"], o["pepper"])
        assert asr.tuple_count != before or True  # rows changed shape
        manager.check_consistency()

    def test_multiple_asrs_all_maintained(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        for extension in Extension:
            manager.create(path, extension)
        db.set_attr(o["trak"], "Composition", o["parts_sausage"])
        manager.check_consistency()

    def test_maintained_rows_are_counted_in_the_registry_in_force(self, company_world):
        db, path, o = company_world
        registry, explicit = MetricsRegistry(), MetricsRegistry()
        context = ExecutionContext(metrics=registry)
        manager = ASRManager(db, context=context)
        manager.create(path, Extension.FULL)
        rows = {"extension": "full"}
        db.set_insert(o["parts_sec"], o["pepper"])  # eager
        eager = registry.counter_value("asr.maintenance.rows", stage="asr.apply", **rows)
        assert eager > 0
        manager._batch_depth += 1  # hold a batch open manually
        db.set_remove(o["parts_sec"], o["pepper"])
        manager._batch_depth -= 1
        changed = manager.flush()
        assert changed > 0
        assert registry.counter_value(
            "asr.maintenance.rows", stage="asr.flush", **rows
        ) == changed
        # An explicit registry overrides the context's.
        manager.metrics = explicit
        db.set_insert(o["parts_sec"], o["pepper"])
        assert explicit.counter_value(
            "asr.maintenance.rows", stage="asr.apply", **rows
        ) == eager
        assert registry.counter_value(
            "asr.maintenance.rows", stage="asr.apply", **rows
        ) == eager
        manager.check_consistency()

    def test_unrelated_schema_events_ignored(self, company_world):
        db, path, _o = company_world
        db.schema.define_tuple("Unrelated", {"X": "STRING"})
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL)
        rows_before = set(asr.recompose().rows)
        db.new("Unrelated", X="hi")
        assert set(asr.recompose().rows) == rows_before


class TestLifecycle:
    def test_closed_manager_no_longer_maintains(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL)
        manager.close()
        assert manager.closed
        rows_before = set(asr.recompose().rows)
        db.set_insert(o["parts_sec"], o["pepper"])
        # The subscription is gone: the ASR goes stale instead of following.
        assert set(asr.recompose().rows) == rows_before

    def test_close_is_idempotent(self, company_world):
        db, path, _o = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.LEFT)
        manager.close()
        manager.close()
        assert manager.closed

    def test_context_manager_form(self, company_world):
        db, path, o = company_world
        with ASRManager(db) as manager:
            asr = manager.create(path, Extension.FULL)
            db.set_insert(o["parts_sec"], o["pepper"])
            manager.check_consistency()
        assert manager.closed
        rows_after_close = set(asr.recompose().rows)
        db.set_remove(o["parts_sec"], o["pepper"])
        assert set(asr.recompose().rows) == rows_after_close

    def test_close_flushes_pending_batch(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.FULL)
        with manager.batch():
            db.set_insert(o["parts_sec"], o["pepper"])
            # Close mid-batch: pending work is applied, not dropped.
            manager.close()
        manager.check_consistency()


class TestBatching:
    def test_batch_defers_until_flush(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        rows_before = set(asr.recompose().rows)
        with manager.batch():
            db.set_insert(o["parts_sec"], o["pepper"])
            assert set(asr.recompose().rows) == rows_before
        assert set(asr.recompose().rows) != rows_before
        manager.check_consistency()

    def test_nested_batches_flush_once_at_outermost(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        asr = manager.create(path, Extension.FULL)
        rows_before = set(asr.recompose().rows)
        with manager.batch():
            with manager.batch():
                db.set_insert(o["parts_sec"], o["pepper"])
            # Inner exit must not flush.
            assert set(asr.recompose().rows) == rows_before
            db.set_attr(o["trak"], "Composition", o["parts_sausage"])
        manager.check_consistency()

    def test_coalesced_events_apply_exactly(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.CANONICAL, Decomposition.none(path.m))
        with manager.batch():
            # Overlapping events on one collection, including an
            # insert-then-remove that must leave no trace.
            db.set_insert(o["parts_sec"], o["pepper"])
            db.set_remove(o["parts_sec"], o["pepper"])
            db.set_insert(o["parts_sausage"], o["door"])
        manager.check_consistency()

    def test_explicit_flush_returns_rows_changed(self, company_world):
        db, path, o = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.FULL)
        manager._batch_depth += 1  # hold the batch open manually
        db.set_insert(o["parts_sec"], o["pepper"])
        manager._batch_depth -= 1
        assert manager.flush() > 0
        assert manager.flush() == 0  # nothing left
        manager.check_consistency()

    def test_context_exit_flushes(self, company_world):
        db, path, o = company_world
        with ExecutionContext() as context:
            manager = ASRManager(db, context=context)
            asr = manager.create(path, Extension.FULL)
            rows_before = set(asr.recompose().rows)
            manager._batch_depth += 1
            db.set_insert(o["parts_sec"], o["pepper"])
            manager._batch_depth -= 1
            assert set(asr.recompose().rows) == rows_before
        # Context close ran the manager's flush hook.
        manager.check_consistency()
        assert "asr.flush" in context.op_counts

    def test_batched_maintenance_charges_context(self, company_world, trace):
        db, path, o = company_world
        context = ExecutionContext()
        manager = ASRManager(db, context=context)
        manager.create(path, Extension.FULL, Decomposition.binary(path.m))
        with manager.batch():
            db.set_insert(o["parts_sec"], o["pepper"])
        assert context.stats.total > 0
        (flush,) = [row for row in trace.spans if row["name"] == "asr.flush"]
        assert flush["page_reads"] + flush["page_writes"] == context.stats.total
