"""Select-statement execution: the paper's Queries 1-3 and variations."""

import pytest

from repro.asr import ASRManager, Decomposition, Extension
from repro.errors import QueryError
from repro.query import Planner, QueryEvaluator, SelectExecutor


@pytest.fixture()
def company_executor(company_world):
    db, path, objects = company_world
    manager = ASRManager(db)
    manager.create(path, Extension.FULL, Decomposition.binary(path.m))
    executor = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
    return db, objects, executor


class TestPaperQueries:
    def test_query1(self, robot_world):
        db, path, _objects = robot_world
        executor = SelectExecutor(db)
        report = executor.run(
            'select r.Name from r in OurRobots '
            'where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"'
        )
        assert sorted(report.rows) == [("R2D2",), ("Robi",), ("X4D5",)]

    def test_query2(self, company_executor):
        _db, _objects, executor = company_executor
        report = executor.run(
            'select d.Name from d in Mercedes, b in d.Manufactures.Composition '
            'where b.Name = "Door"'
        )
        assert sorted(report.rows) == [("Auto",), ("Truck",)]

    def test_query3(self, company_executor):
        _db, _objects, executor = company_executor
        report = executor.run(
            'select d.Manufactures.Composition.Name from d in Mercedes '
            'where d.Name = "Auto"'
        )
        assert report.rows == [("Door",)]


class TestExecutionFeatures:
    def test_extent_range(self, company_executor):
        _db, _objects, executor = company_executor
        report = executor.run('select p.Name from p in extent(Product)')
        assert sorted(report.rows) == [("560 SEC",), ("MB Trak",), ("Sausage",)]

    def test_in_predicate(self, company_executor):
        _db, _objects, executor = company_executor
        report = executor.run(
            'select d.Name from d in Mercedes '
            'where "Door" in d.Manufactures.Composition.Name'
        )
        assert sorted(report.rows) == [("Auto",), ("Truck",)]

    def test_and_conjunction(self, company_executor):
        _db, _objects, executor = company_executor
        report = executor.run(
            'select d.Name from d in Mercedes '
            'where "Door" in d.Manufactures.Composition.Name and d.Name = "Auto"'
        )
        assert report.rows == [("Auto",)]

    def test_select_object_itself(self, company_executor):
        _db, objects, executor = company_executor
        report = executor.run('select d from d in Mercedes where d.Name = "Space"')
        assert report.rows == [(objects["space"],)]

    def test_numeric_predicate(self, company_executor):
        _db, _objects, executor = company_executor
        report = executor.run(
            'select p.Name from p in extent(BasePart) where p.Price = 0.12'
        )
        assert report.rows == [("Pepper",)]

    def test_empty_result(self, company_executor):
        _db, _objects, executor = company_executor
        report = executor.run(
            'select d.Name from d in Mercedes where d.Name = "Ghost"'
        )
        assert report.rows == []

    def test_unknown_attribute_raises(self, company_executor):
        _db, _objects, executor = company_executor
        with pytest.raises(QueryError):
            executor.run('select d.Ghost from d in Mercedes')

    def test_variable_bound_to_single_object(self, company_world):
        db, _path, objects = company_world
        db.set_var("AutoDiv", objects["auto"], "Division")
        executor = SelectExecutor(db)
        report = executor.run("select d.Name from d in AutoDiv")
        assert report.rows == [("Auto",)]


class TestASRFastPath:
    """Undecomposed, the ASR answers with one lookup, which the price list
    ranks below the traversal."""

    def test_fast_path_used_and_correct(self, company_world):
        db, path, _objects = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        with_asr = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
        without_asr = SelectExecutor(db)
        query = (
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Name = "Door"'
        )
        fast = with_asr.run(query)
        slow = without_asr.run(query)
        assert sorted(fast.rows) == sorted(slow.rows)
        assert fast.strategy.startswith("asr-backward")
        assert slow.strategy == "nested-loop traversal"

    def test_fast_path_respects_other_predicates(self, company_world):
        db, path, _objects = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        executor = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
        report = executor.run(
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Name = "Door" and d.Name = "Truck"'
        )
        assert report.rows == [("Truck",)]

    def test_fast_path_stays_correct_after_updates(self, company_world):
        db, path, objects = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        executor = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
        db.set_remove(objects["parts_sec"], objects["door"])
        report = executor.run(
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Name = "Door"'
        )
        assert report.rows == []


class TestExecutionReportPages:
    def test_report_totals_and_description(self):
        from repro.query.executor import ExecutionReport

        report = ExecutionReport([("x",)], "asr-backward", page_reads=3, page_writes=2)
        assert report.total_pages == 5
        assert report.describe_pages() == "3 page reads, 2 page writes, 5 total"

    def test_fast_path_reports_page_accesses(self, company_world):
        db, path, _objects = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        executor = SelectExecutor(db, Planner(manager), QueryEvaluator(db))
        report = executor.run(
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Name = "Door"'
        )
        assert report.strategy.startswith("asr-backward")
        assert report.page_reads > 0
        assert report.page_writes == 0  # a read-only query writes nothing
        assert report.total_pages == report.page_reads + report.page_writes

    def test_executor_threads_context(self, company_world, trace):
        from repro.context import ExecutionContext

        db, path, _objects = company_world
        manager = ASRManager(db)
        manager.create(path, Extension.FULL, Decomposition.none(path.m))
        context = ExecutionContext()
        executor = SelectExecutor(db, Planner(manager), context=context)
        report = executor.run(
            'select d.Name from d in Mercedes '
            'where d.Manufactures.Composition.Name = "Door"'
        )
        assert report.page_reads == context.stats.page_reads
        assert any(row["name"].startswith("query.supported") for row in trace.spans)


class TestBind:
    """``CompiledSelect.bind``: new constants, the decisions reused."""

    TEXT = (
        "select p.Name from p in extent(BasePart) "
        'where p.Price >= 1 and "Door" = p.Name and 2 < p.Price and p.Price < 3'
    )

    def test_every_place_a_literal_lives_is_rebound(self, company_executor):
        _db, _objects, executor = company_executor
        template = executor.compile(self.TEXT)
        values = [0.5, "Pepper", 7, 2000]
        bound = template.bind(values)
        cold = executor.compile(
            self.TEXT.replace("1 and", "0.5 and")
            .replace('"Door"', '"Pepper"')
            .replace("2 <", "7 <")
            .replace("< 3", "< 2000")
        )
        assert bound.statement == cold.statement
        assert bound.residual == cold.residual  # ``2 < p.Price`` is ``>``
        assert [a.query for a in bound.actions] == [a.query for a in cold.actions]
        for action, fresh, old in zip(bound.actions, cold.actions, template.actions):
            assert action.predicate == fresh.predicate
            assert action.plan.query is action.query
            # The decision itself is the template's, not re-planned.
            assert (action.plan.asr, action.plan.estimated_pages) == (
                old.plan.asr,
                old.plan.estimated_pages,
            )
        assert executor.run_compiled(bound).rows == executor.run_compiled(cold).rows

    def test_a_value_per_literal(self, company_executor):
        _db, _objects, executor = company_executor
        with pytest.raises(ValueError, match="4 literals, 2 values"):
            executor.compile(self.TEXT).bind(["Pepper", 5])
