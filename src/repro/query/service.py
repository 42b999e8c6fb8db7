"""The query service: text in, rows out, plans cached per shape and epoch.

One :class:`QueryService` per daemon wires the whole front-door
pipeline together::

    text ─ normalize ─ shape ─ (cache hit? ─ bind literals ─┐
                         │                                  │
                         └ parse_select → validate_select → │
                           SelectExecutor.compile → cache ──┤
                                                            ▼
                                         SelectExecutor.run_compiled

The cache key is ``(query shape, epoch)``: the normalized text with its
literals abstracted to their kinds (:func:`~repro.query.cache.query_shape`),
so a hit on a constant never sent before binds it into the shape's
template (:meth:`~repro.query.executor.CompiledSelect.bind`) and skips
parse, validation and planning.  Two templates are not cached: one
whose shape keeps a literal in its text (the shape could not prove it
a token, so a hit could not bind every literal), and one whose plan an
access restriction degraded (a restriction is a fact about now, not
about the shape).  Everything from the epoch read to the last tree
probe happens under one hold of the ASR manager's read lock, so the
key can never pair a plan with trees from a different epoch.  Parse
and validation failures raise :class:`~repro.errors.ParseError` /
:class:`~repro.errors.QueryError` (counted as ``query.errors`` by
kind) — the same error for a text whatever is cached; callers map them
to HTTP 400 with the exception text as the payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.errors import ParseError, QueryError
from repro.gom.database import ObjectBase
from repro.gom.objects import OID
from repro.gom.types import NULL
from repro.query.cache import CompiledPlanCache, normalize_query, query_shape
from repro.query.evaluator import QueryEvaluator
from repro.query.executor import ExecutionReport, SelectExecutor
from repro.query.parser import SelectStatement, literal_value, parse_select
from repro.query.planner import Planner, mark_restriction
from repro.query.validate import validate_select
from repro.telemetry.tracing import maybe_span


def jsonable_cell(cell):
    """A JSON-serializable rendering of one result cell."""
    if cell is NULL:
        return None
    if isinstance(cell, OID):
        return repr(cell)
    return cell


@dataclass
class QueryOutcome:
    """What one service call produced, plus how it got there."""

    report: ExecutionReport
    statement: SelectStatement
    cached: bool
    epoch: int
    normalized: str

    def payload(self) -> dict:
        """The HTTP 200 response body for this outcome."""
        return {
            "rows": [
                [jsonable_cell(cell) for cell in row] for row in self.report.rows
            ],
            "row_count": len(self.report.rows),
            "strategy": self.report.strategy,
            "page_reads": self.report.page_reads,
            "page_writes": self.report.page_writes,
            "total_pages": self.report.total_pages,
            "cached": self.cached,
            "epoch": self.epoch,
        }


class QueryService:
    """Executes query texts over one object base, caching compiled plans.

    ``planner`` is shared across calls (it holds the cost model's
    profile cache); per-call state lives in the
    :class:`~repro.context.ExecutionContext` handed to :meth:`execute`,
    so concurrent HTTP requests may call into one service freely.
    """

    def __init__(
        self,
        db: ObjectBase,
        planner: Planner,
        store=None,
        cache_size: int = 128,
        registry=None,
    ) -> None:
        self.db = db
        self.planner = planner
        self.store = store
        self.registry = registry
        self.cache = CompiledPlanCache(cache_size, registry=registry)

    @property
    def manager(self):
        return self.planner.manager

    def _count_error(self, kind: str) -> None:
        if self.registry is not None:
            self.registry.inc("query.errors", kind=kind)

    def execute(self, text: str, context=None, trace=None) -> QueryOutcome:
        """Run ``text`` end to end; raises ParseError/QueryError on bad input.

        ``trace`` (a :class:`~repro.telemetry.tracing.Trace`) receives
        the phase decomposition: the cache probe (its key, the query's
        shape, included) and the binding of a hit's literals as
        ``cache-hit``, parse + validate + compile as
        ``plan``, and the compiled run as ``execute`` — disjoint
        segments, so they sum toward the reported latency (the read-lock
        wait is attributed separately by the
        :class:`~repro.concurrency.RWLock` hook).  The trace is
        annotated with the normalized text, literals included.
        """
        started = time.perf_counter()
        evaluator = QueryEvaluator(self.db, self.store, context=context)
        executor = SelectExecutor(self.db, self.planner, evaluator=evaluator)
        manager = self.manager
        # One read hold across epoch read, cache probe, (re)compile, and
        # execution: a registration, replace or quarantine cannot slip a
        # new epoch between the key we cache under and the trees we
        # probe, nor maintenance a half-applied delta into the probes.
        with manager.lock.read():
            epoch = manager.epoch
            with maybe_span(trace, "query.cache.probe", "cache-hit"):
                normalized = normalize_query(text)
                if trace is not None:
                    trace.annotate(query=normalized)
                shape, literals = query_shape(normalized)
                compiled = self.cache.get(shape, epoch)
                if compiled is not None:
                    try:
                        # In token order, so the first literal the parser
                        # would refuse is the one refused here.
                        values = [literal_value(token) for token in literals]
                    except ParseError:
                        self._count_error("parse")
                        raise
                    compiled = compiled.bind(values)
            cached = compiled is not None
            if compiled is None:
                with maybe_span(trace, "query.compile", "plan"):
                    try:
                        statement = parse_select(normalized)
                    except ParseError:
                        self._count_error("parse")
                        raise
                    try:
                        validate_select(statement, self.db)
                    except QueryError:
                        self._count_error("validate")
                        raise
                    compiled = replace(executor.compile(statement), epoch=epoch)
                    if len(literals) == len(statement.literals()) and not any(
                        action.plan.restriction for action in compiled.actions
                    ):
                        self.cache.put(shape, epoch, compiled)
            try:
                with maybe_span(trace, "query.run_compiled", "execute"):
                    report = executor.run_compiled(compiled, fresh=not cached)
            except Exception:
                self._count_error("execute")
                raise
        if trace is not None:
            trace.annotate(
                strategy=report.strategy,
                cached=cached,
                epoch=epoch,
                pages=report.total_pages,
            )
            mark_restriction(trace, report.restriction)
        if self.registry is not None:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self.registry.observe(
                "query.latency_ms",
                elapsed_ms,
                exemplar=None if trace is None else trace.trace_id,
            )
        return QueryOutcome(report, compiled.statement, cached, epoch, normalized)
