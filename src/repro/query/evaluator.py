"""Query evaluation with page-access measurement.

Two strategies per query (section 5.6 / 5.7):

**Unsupported** evaluation works on the object representation only.
Forward queries chase references level by level, reading each referenced
object's page; backward queries have no reverse pointers to follow, so
they exhaustively scan the extent of ``t_i`` and traverse forward from
every candidate (the simulator's page charges mirror the terms of
Eqs. 31–32 — ``op_i`` for the scan, one page per distinct object touched
at the intermediate levels).

**Supported** evaluation chains through the partitions of an access
support relation: a lookup per frontier value in partitions whose border
matches the query endpoint, and an exhaustive partition scan when the
endpoint falls strictly inside a partition — the same case split as the
three sums of Eq. 33/34, decided once per query shape as the ASR's
:class:`~repro.asr.asr.AccessPath` and run as one loop.

Both strategies return the *same* result sets (property-tested); only
their page-access profiles differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asr.asr import AccessSupportRelation
from repro.context import ExecutionContext
from repro.errors import QueryError
from repro.gom.database import ObjectBase
from repro.gom.objects import OID, Cell
from repro.gom.types import NULL
from repro.query.queries import BackwardQuery, ForwardQuery, Query, ValueRangeQuery
from repro.storage.objectstore import ClusteredObjectStore

#: The measured operation of a supported evaluation, by direction.
_SUPPORTED = {"fw": "query.supported.fw", "bw": "query.supported.bw"}


def access_restriction(asr: AccessSupportRelation, breakers=None) -> str | None:
    """The access restriction on ``asr`` right now, ``None`` when readable.

    The one degraded-mode rule: a quarantined ASR (trees possibly torn)
    or one whose circuit breaker refuses the query is an *access
    restriction* in the sense of Benedikt et al. — Eq. 35 then treats
    the relation as absent and the query is answered under whatever is
    left.  Without ``breakers`` this is a pure read of the quarantine.
    ``breakers.allow_query`` is stateful (a half-open breaker admits
    exactly one probe), so pass ``breakers`` only for an ASR the
    decision would use, and at most once per decision.
    """
    if asr.quarantined:
        return "quarantined"
    if breakers is not None and not breakers.allow_query(asr):
        return "breaker-open"
    return None


@dataclass
class EvaluationResult:
    """The answer set of a query plus its measured page accesses."""

    cells: set[Cell]
    page_reads: int = 0
    page_writes: int = 0
    strategy: str = "unsupported"
    detail: dict[str, int] = field(default_factory=dict)

    @property
    def total_pages(self) -> int:
        return self.page_reads + self.page_writes


class QueryEvaluator:
    """Evaluates forward/backward queries over one object base.

    Parameters
    ----------
    db:
        The object base.
    store:
        Optional clustered object store; when given, unsupported
        evaluation charges object-page accesses to it.  Without a store,
        results are still exact but page counts are zero.
    context:
        The :class:`~repro.context.ExecutionContext` to charge; the
        evaluator makes its own (per-operation scopes) when none is
        given.  Every evaluated query is one measured operation of it:
        the context's buffer for one operation, one page delta, and —
        under an active trace — one row.
    """

    def __init__(
        self,
        db: ObjectBase,
        store: ClusteredObjectStore | None = None,
        context: ExecutionContext | None = None,
    ):
        self.db = db
        self.store = store
        self.context = context if context is not None else ExecutionContext()
        self.stats = self.context.stats
        #: ``"<extension>:<decomposition>"`` -> its ``asr.lookups`` series.
        self._lookups: dict = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def evaluate(
        self, query: Query, asr: AccessSupportRelation | None = None
    ) -> EvaluationResult:
        """Evaluate with the ASR when it applies (Eq. 35), else unsupported.

        A quarantined ASR (crash recovery pending, trees possibly torn)
        is treated as absent: the query degrades to the unsupported
        strategy — correct answer, worse page profile — and the fallback
        is counted in the context trace under ``query.degraded-fallback``.
        """
        if asr is not None and asr.supports_query(query.i, query.j):
            if access_restriction(asr) is not None:
                self.context.count("query.degraded-fallback")
                result = self.evaluate_unsupported(query)
                result.strategy = "unsupported (degraded: ASR quarantined)"
                return result
            return self.evaluate_supported(query, asr)
        return self.evaluate_unsupported(query)

    def evaluate_unsupported(self, query: Query) -> EvaluationResult:
        with self.context.measure(f"query.unsupported.{query.kind}") as measured:
            buffer = measured.buffer
            if isinstance(query, ForwardQuery):
                cells = self._forward_traverse(query, buffer)
            elif isinstance(query, ValueRangeQuery):
                cells = self._range_scan(query, buffer)
            elif isinstance(query, BackwardQuery):
                cells = self._backward_scan(query, buffer)
            else:
                raise QueryError(f"unknown query shape {query!r}")
        delta = measured.delta
        return EvaluationResult(
            cells,
            delta.page_reads,
            delta.page_writes,
            "unsupported",
            delta.by_category,
        )

    def evaluate_supported(
        self, query: Query, asr: AccessSupportRelation
    ) -> EvaluationResult:
        """Answer ``query`` through ``asr``'s access path for its shape.

        The Eq. 33/34 steps come from :meth:`AccessSupportRelation.access_path
        <repro.asr.asr.AccessSupportRelation.access_path>`, decided once
        per shape (Eq. 35 included); per call this checks the path and
        the quarantine, then runs the steps as one measured operation.
        """
        if asr.path is not query.path and asr.path != query.path:
            raise QueryError("the ASR does not index this query's path")
        access = asr.access_path(query)
        if asr.quarantined:
            raise QueryError(
                f"ASR {asr.path} [{asr.extension.value}] is quarantined after "
                "a crash/fault; recover it or use evaluate() to fall back"
            )
        # The measured row (no phase — the planner already books this
        # time under `execute`) names the ASR that served the lookup.
        served = asr.design
        with self.context.measure(
            _SUPPORTED[access.direction], asr=served
        ) as measured:
            cells = access.run(query, measured.buffer)
        delta = measured.delta
        context = self.context
        if context.metrics is not None:
            # Per-ASR lookup traffic: which physical design served reads.
            lookups = self._lookups.get(served)
            if lookups is None:
                lookups = self._lookups[served] = context.metrics.series(
                    "asr.lookups",
                    extension=asr.extension.value,
                    decomposition=str(asr.decomposition),
                )
            context.count_series(lookups)
        return EvaluationResult(
            cells,
            delta.page_reads,
            delta.page_writes,
            f"asr:{served}",
            delta.by_category,
        )

    # ------------------------------------------------------------------
    # unsupported strategies
    # ------------------------------------------------------------------

    def _charge_object(self, oid: OID, type_name: str, buffer) -> None:
        if self.store is not None:
            self.store.access(oid, type_name, buffer)

    def _forward_traverse(self, query: ForwardQuery, buffer) -> set[Cell]:
        """Pointer-chasing from a single start object (Eq. 31 profile)."""
        if isinstance(query.start, OID) and query.start not in self.db:
            return set()
        return self._forward_from(
            query.start, query.path, query.i, query.j, buffer, charge_start=True
        )

    def _range_scan(self, query: ValueRangeQuery, buffer) -> set[Cell]:
        """Exhaustive search with a value-range predicate at the terminal."""
        from repro.asr.asr import cell_key

        path, i = query.path, query.i
        origin_type = path.types[i]
        if self.store is not None:
            self.store.scan_type(origin_type, buffer)
        lo_key, hi_key = cell_key(query.lo), cell_key(query.hi)
        origins: set[Cell] = set()
        for oid in self.db.extent(origin_type):
            reached = self._forward_from(
                oid, path, i, path.n, buffer, charge_start=False
            )
            if any(lo_key <= cell_key(value) < hi_key for value in reached):
                origins.add(oid)
        return origins

    def _backward_scan(self, query: BackwardQuery, buffer) -> set[Cell]:
        """Exhaustive search from the ``t_i`` extent (Eq. 32 profile)."""
        path, i, j = query.path, query.i, query.j
        origin_type = path.types[i]
        if self.store is not None:
            self.store.scan_type(origin_type, buffer)
        origins: set[Cell] = set()
        for oid in self.db.extent(origin_type):
            reached = self._forward_from(oid, path, i, j, buffer, charge_start=False)
            if query.target in reached:
                origins.add(oid)
        return origins

    def _forward_from(
        self, start: Cell, path, i: int, j: int, buffer, charge_start: bool
    ) -> set[Cell]:
        """Chase references level by level from ``start`` ∈ ``t_i`` to ``t_j``.

        ``charge_start=False`` is for callers that already paid for the
        start object's page (an extent scan).
        """
        frontier: set[Cell] = {start}
        for level in range(i, j):
            step = path.steps[level]
            next_frontier: set[Cell] = set()
            for cell in frontier:
                if not isinstance(cell, OID):
                    continue
                # Reading the attribute requires the object's page.
                if level > i or charge_start:
                    self._charge_object(cell, self.db.type_of(cell), buffer)
                value = self.db.attr(cell, step.attribute)
                if value is NULL:
                    continue
                if step.is_set_occurrence:
                    assert isinstance(value, OID)
                    next_frontier.update(self.db.members(value))
                else:
                    next_frontier.add(value)
            frontier = next_frontier
            if not frontier:
                break
        return frontier
