"""Execution of parsed select statements against an object base.

The executor binds range variables (database variables holding sets,
type extents, or dependent ranges over attribute paths), evaluates the
``where`` predicates, and produces the selected values.

When a :class:`~repro.query.planner.Planner` is supplied, the executor
recognizes the paper's flagship pattern — a predicate comparing a path
expression rooted at the first range variable with a literal — lowers
it to its ``Q_{i,j}`` and has :meth:`Planner.run` answer it: through a
registered access support relation, or as the (charged) unsupported
scan when none is usable.  Only the residual predicates are filtered
binding by binding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Sequence

from repro.asr.asr import BOTTOM, TOP
from repro.errors import QueryError
from repro.gom.database import ObjectBase
from repro.gom.objects import OID, Cell
from repro.gom.paths import PathExpression
from repro.gom.types import NULL, SetType, ListType, TupleType
from repro.query.parser import (
    DottedPath,
    Literal,
    Operand,
    Predicate,
    SelectStatement,
    parse_select,
)
from repro.query.planner import Plan, Planner
from repro.query.queries import BackwardQuery, Query, ValueRangeQuery
from repro.query.evaluator import QueryEvaluator


@dataclass(frozen=True)
class PredicateAction:
    """One lowered predicate, in predicate order.

    ``plan`` is the planner's decision for ``query``, the ``Q_{i,j}``
    form of ``predicate``: through ``plan.asr``, or — no covering
    support, the deliberate Figure 8 fallback, or a degraded plan whose
    ``plan.restriction`` names why covering support was unusable — the
    unsupported evaluation.  Either way
    :meth:`~repro.query.planner.Planner.run` answers it and the
    candidates are intersected with its cells.  Supported plans are
    re-checked at execution time: quarantine or an open breaker degrades
    them without recompiling.
    """

    predicate: Predicate
    query: Query
    plan: Plan


@dataclass(frozen=True)
class CompiledSelect:
    """A parsed statement plus its frozen plan decisions.

    The expensive part of :meth:`SelectExecutor.run` — recognizing
    indexable predicates and ranking ASRs for each — is done once at
    compile time; :meth:`SelectExecutor.run_compiled` replays the
    decisions against live data.  ``epoch`` records the ASR manager
    epoch the plans were made under (filled in by the caching layer);
    a compiled statement is only as fresh as that epoch.
    """

    statement: SelectStatement
    actions: tuple[PredicateAction, ...]
    #: The predicates no action answers (joins, ``<=`` / ``>``, anything
    #: not rooted at the first range variable): the nested-loop filter.
    residual: tuple[Predicate, ...]
    epoch: int | None = None

    def bind(self, values: Sequence[Cell]) -> CompiledSelect:
        """This plan with ``values`` for its literals, in token order.

        Each value replaces its literal wherever the plan holds it: in
        the statement's predicates and the residual, and in each
        action's predicate, query (``BackwardQuery.target``,
        ``ValueRangeQuery.lo`` / ``hi``) and ``Plan.query``.  The
        decisions are reused as they are: the planner prices a query per
        ``(path, i, j, kind)``, whatever its anchor; validation checks a
        literal only by its type, which a caller binding values of the
        template's kinds keeps; lowering reads only the operator and the
        path.  Access restrictions are not part of a plan's reuse:
        :meth:`SelectExecutor.run_compiled` rechecks them on every run.
        """
        literals = len(self.statement.literals())
        if len(values) != literals:
            raise ValueError(f"{literals} literals, {len(values)} values")
        fill = iter(values)
        predicates: list[Predicate] = []
        actions: list[PredicateAction] = []
        residual: list[Predicate] = []
        pending = iter(self.actions)
        action = next(pending, None)
        for predicate in self.statement.predicates:
            left, right, bound = predicate.left, predicate.right, None
            if isinstance(left, Literal):
                bound = left = Literal(next(fill))
            if isinstance(right, Literal):
                bound = right = Literal(next(fill))
            rebound = predicate
            if bound is not None:
                rebound = Predicate(left, predicate.op, right)
            predicates.append(rebound)
            # ``compile`` splits the predicates, in order, into actions
            # and the residual; an action's predicate holds one literal.
            if action is not None and action.predicate is predicate:
                query = _rebind_query(action.query, bound.value)
                plan = replace(action.plan, query=query)
                actions.append(PredicateAction(rebound, query, plan))
                action = next(pending, None)
            else:
                residual.append(rebound)
        # Built field by field: ``dataclasses.replace`` costs twice as
        # much, and this runs on every cache hit.
        statement = self.statement
        return CompiledSelect(
            SelectStatement(statement.targets, statement.ranges, tuple(predicates)),
            tuple(actions),
            tuple(residual),
            self.epoch,
        )


def _rebind_query(query: Query, value: Cell) -> Query:
    """``query``, the lowering of a rooted-literal predicate, anchored at ``value``."""
    if isinstance(query, BackwardQuery):
        return replace(query, target=value)
    # A one-sided range (``_indexable_query``): the literal is the
    # bound that is not open.
    if query.lo is BOTTOM:
        return replace(query, hi=value)
    return replace(query, lo=value)


#: Strategy strings for the two ways a supported predicate degrades.
_DEGRADED_STRATEGIES = {
    "quarantined": "nested-loop traversal (degraded: ASR quarantined)",
    "breaker-open": "nested-loop traversal (degraded: breaker open)",
}


@dataclass
class ExecutionReport:
    """Result rows plus how they were obtained.

    ``page_reads`` and ``page_writes`` are the page accesses of every
    lowered predicate — what :meth:`~repro.query.planner.Planner.run`
    charged for its ``Q_{i,j}``, through an ASR or as the unsupported
    scan; ``total_pages`` is their sum (the paper's cost measure).
    Binding dependent ranges, residual predicates and projection read
    the logical object graph only and charge nothing.
    """

    rows: list[tuple[Cell, ...]]
    strategy: str = "nested-loop traversal"
    page_reads: int = 0
    page_writes: int = 0
    #: The access restriction (``"quarantined"`` / ``"breaker-open"``)
    #: that degraded some predicate to the unsupported scan, if any.
    restriction: str | None = None

    @property
    def total_pages(self) -> int:
        return self.page_reads + self.page_writes

    def describe_pages(self) -> str:
        """Human-readable access summary (used by the CLI)."""
        return (
            f"{self.page_reads} page reads, {self.page_writes} page writes, "
            f"{self.total_pages} total"
        )

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class SelectExecutor:
    """Runs :class:`SelectStatement` objects over one object base."""

    def __init__(
        self,
        db: ObjectBase,
        planner: Planner | None = None,
        evaluator: QueryEvaluator | None = None,
        context=None,
    ) -> None:
        self.db = db
        self.planner = planner
        if evaluator is None:
            evaluator = QueryEvaluator(db, context=context)
        self.evaluator = evaluator

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, statement: SelectStatement | str) -> ExecutionReport:
        if isinstance(statement, str):
            statement = parse_select(statement)
        if self.planner is not None:
            # Hold the manager's read side across planning, binding *and*
            # filtering so a concurrent maintenance write cannot swap ASR
            # state between the plan decision and the tree probes (the
            # read side is reentrant, so nested plan calls are fine).
            with self.planner.manager.lock.read():
                return self.run_compiled(self.compile(statement), fresh=True)
        return self.run_compiled(self.compile(statement))

    def compile(self, statement: SelectStatement | str) -> CompiledSelect:
        """Freeze the plan decisions for ``statement`` without running it.

        Lowers every predicate comparing a path expression rooted at the
        first range variable with a literal to its ``Q_{i,j}`` and plans
        each through the attached planner, which counts the decisions
        (``plan.supported`` / ``plan.unsupported``) *here*, so replaying
        the compiled statement via :meth:`run_compiled` provably does no
        planning work.  What does not lower is ``residual``; without a
        planner everything is.
        """
        if isinstance(statement, str):
            statement = parse_select(statement)
        if self.planner is None:
            return CompiledSelect(statement, (), statement.predicates)
        first = statement.ranges[0]
        actions: list[PredicateAction] = []
        residual: list[Predicate] = []
        for predicate in statement.predicates:
            query = self._lower(predicate, first)
            if query is None:
                residual.append(predicate)
            else:
                plan = self.planner.plan(query, self.evaluator.context)
                actions.append(PredicateAction(predicate, query, plan))
        return CompiledSelect(statement, tuple(actions), tuple(residual))

    def run_compiled(
        self, compiled: CompiledSelect, fresh: bool = False
    ) -> ExecutionReport:
        """Execute a previously compiled statement against live data.

        Supported plans are re-validated cheaply
        (:meth:`~repro.query.planner.Planner.recheck`): an ASR that was
        quarantined or breaker-vetoed since compile time degrades that
        predicate to the unsupported scan instead of returning wrong
        rows, and every action — supported or not — goes through the
        planner's one :meth:`~repro.query.planner.Planner.run`, as a
        ``Q_{i,j}`` asked directly does.  ``fresh`` says ``compiled`` was
        planned under the read hold the caller still has (a cold
        request): nothing can have changed, and asking again would spend
        a half-open breaker's one probe on the question instead of on
        the run.
        """
        if self.planner is not None:
            with self.planner.manager.lock.read():
                return self._run_actions(compiled, fresh)
        return self._run_actions(compiled, fresh)

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------

    def _run_actions(self, compiled: CompiledSelect, fresh: bool) -> ExecutionReport:
        statement = compiled.statement
        strategy = "nested-loop traversal"
        reads = writes = 0
        first = statement.ranges[0]
        candidates: set[Cell] | None = None
        restriction = None
        for action in compiled.actions:
            plan = action.plan if fresh else self.planner.recheck(action.plan)
            if plan.asr is not None:
                strategy = f"asr-backward via {plan.asr.extension.value}"
            elif plan.restriction is not None:
                restriction = restriction or plan.restriction
                strategy = _DEGRADED_STRATEGIES[plan.restriction]
                self.evaluator.context.count("query.degraded-fallback")
            result = self.planner.run(plan, self.evaluator)
            if candidates is None:
                candidates = self._in_range(first, result.cells)
            else:
                candidates &= result.cells
            reads += result.page_reads
            writes += result.page_writes
        if candidates is None:
            candidates = set(self._range_members(first, {}))
        bindings_list: list[dict[str, Cell]] = []
        for candidate in sorted(candidates, key=repr):
            self._extend_bindings(
                compiled, 1, {first.variable: candidate}, bindings_list
            )
        rows: list[tuple[Cell, ...]] = []
        seen: set[tuple[Cell, ...]] = set()
        for bindings in bindings_list:
            value_sets = [
                sorted(self._resolve(target, bindings), key=repr)
                for target in statement.targets
            ]
            if any(not values for values in value_sets):
                continue
            for combo in product(*value_sets):
                if combo not in seen:
                    seen.add(combo)
                    rows.append(combo)
        return ExecutionReport(rows, strategy, reads, writes, restriction)

    def _extend_bindings(
        self,
        compiled: CompiledSelect,
        range_index: int,
        bindings: dict[str, Cell],
        output: list[dict[str, Cell]],
    ) -> None:
        ranges = compiled.statement.ranges
        if range_index == len(ranges):
            if all(self._holds(predicate, bindings) for predicate in compiled.residual):
                output.append(dict(bindings))
            return
        decl = ranges[range_index]
        for member in sorted(self._range_members(decl, bindings), key=repr):
            bindings[decl.variable] = member
            self._extend_bindings(compiled, range_index + 1, bindings, output)
            del bindings[decl.variable]

    def _range_members(self, decl, bindings: dict[str, Cell]) -> Iterable[Cell]:
        if decl.is_extent:
            return self.db.extent(decl.source.variable)
        if decl.source.variable in bindings:
            return self._resolve(decl.source, bindings)
        # A database variable: a set/list yields members, anything else a
        # singleton binding; attribute hops may follow.
        root = self.db.get_var(decl.source.variable)
        cells = self._follow({root}, decl.source.attributes)
        return self._flatten_collections(cells)

    def _in_range(self, decl, cells: Iterable[Cell]) -> set[Cell]:
        """The ``cells`` that are members of the unbound range ``decl``.

        An extent is tested cell by cell, never built: a lowered
        predicate answers a handful of cells out of the whole extent.
        """
        if decl.is_extent:
            type_name, in_extent = decl.source.variable, self.db.in_extent
            return {cell for cell in cells if in_extent(type_name, cell)}
        return set(self._range_members(decl, {})).intersection(cells)

    def _flatten_collections(self, cells: Iterable[Cell]) -> set[Cell]:
        result: set[Cell] = set()
        for cell in cells:
            if isinstance(cell, OID) and isinstance(
                self.db.schema.lookup(self.db.type_of(cell)), (SetType, ListType)
            ):
                result.update(self.db.members(cell))
            else:
                result.add(cell)
        return result

    # ------------------------------------------------------------------
    # evaluation of operands and predicates
    # ------------------------------------------------------------------

    def _resolve(self, operand: Operand, bindings: dict[str, Cell]) -> set[Cell]:
        if isinstance(operand, Literal):
            return {operand.value}
        if operand.variable not in bindings:
            raise QueryError(f"unbound variable {operand.variable!r}")
        return self._follow({bindings[operand.variable]}, operand.attributes)

    def _follow(self, cells: set[Cell], attributes: tuple[str, ...]) -> set[Cell]:
        current = set(cells)
        for attribute in attributes:
            next_cells: set[Cell] = set()
            for cell in current:
                if not isinstance(cell, OID):
                    continue
                type_name = self.db.type_of(cell)
                gom_type = self.db.schema.lookup(type_name)
                if isinstance(gom_type, (SetType, ListType)):
                    # Implicit flattening before the hop.
                    for member in self.db.members(cell):
                        next_cells.update(self._follow({member}, (attribute,)))
                    continue
                if not isinstance(gom_type, TupleType):
                    continue
                if attribute not in self.db.schema.attributes_of(type_name):
                    raise QueryError(f"{type_name!r} has no attribute {attribute!r}")
                value = self.db.attr(cell, attribute)
                if value is NULL:
                    continue
                if isinstance(value, OID) and isinstance(
                    self.db.schema.lookup(self.db.type_of(value)), (SetType, ListType)
                ):
                    next_cells.update(self.db.members(value))
                else:
                    next_cells.add(value)
            current = next_cells
        return current

    def _holds(self, predicate: Predicate, bindings: dict[str, Cell]) -> bool:
        left = self._resolve(predicate.left, bindings)
        right = self._resolve(predicate.right, bindings)
        if predicate.op in ("=", "in"):
            # '=' on multi-valued path expressions has existential
            # semantics, as in the paper's Query 1; 'in' is the explicit
            # membership form.
            return bool(left & right)
        # Order comparisons are existential too: some reachable value
        # satisfies the bound.  Cells are compared through the total
        # order the storage layer uses for its value clustering.
        from repro.asr.asr import cell_key

        comparators = {
            "<": lambda a, b: cell_key(a) < cell_key(b),
            "<=": lambda a, b: cell_key(a) <= cell_key(b),
            ">": lambda a, b: cell_key(a) > cell_key(b),
            ">=": lambda a, b: cell_key(a) >= cell_key(b),
        }
        compare = comparators[predicate.op]
        return any(compare(a, b) for a in left for b in right)

    # ------------------------------------------------------------------
    # ASR fast-path helpers
    # ------------------------------------------------------------------

    _MIRRORED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "in": "in"}

    def _lower(self, predicate: Predicate, first) -> Query | None:
        """The ``Q_{i,j}`` form of ``predicate``; ``None`` keeps it residual."""
        rooted = self._rooted_literal_predicate(predicate, first.variable)
        if rooted is None:
            return None
        attributes, literal, op = rooted
        path = self._try_path(first, attributes)
        if path is None:
            return None
        return self._indexable_query(path, literal, op)

    @classmethod
    def _rooted_literal_predicate(
        cls, predicate: Predicate, variable: str
    ) -> tuple[tuple[str, ...], Literal, str] | None:
        left, right, op = predicate.left, predicate.right, predicate.op
        if isinstance(left, Literal) and isinstance(right, DottedPath):
            left, right = right, left
            op = cls._MIRRORED_OPS[op]
        if not isinstance(left, DottedPath) or not isinstance(right, Literal):
            return None
        if left.variable != variable or not left.attributes:
            return None
        return left.attributes, right, op

    @staticmethod
    def _indexable_query(path, literal: Literal, op: str):
        """The backward/range query answering ``path op literal``."""
        if op in ("=", "in"):
            return BackwardQuery(path, 0, path.n, target=literal.value)
        if not path.terminal_is_atomic:
            return None
        # One-sided scans are unbounded on the open side: BOTTOM/TOP sort
        # below/above every real cell, so no stored value — of any rank —
        # can escape the scan.  (Finite per-rank sentinels used to live
        # here and silently missed values sorting above them.)
        try:
            if op == "<":
                return ValueRangeQuery(path, 0, path.n, lo=BOTTOM, hi=literal.value)
            if op == ">=":
                return ValueRangeQuery(path, 0, path.n, lo=literal.value, hi=TOP)
        except Exception:
            return None
        # '<=' and '>' need inclusive/exclusive bounds the half-open scan
        # cannot express exactly for arbitrary value domains; fall back to
        # the nested-loop filter for those.
        return None

    def _try_path(self, decl, attributes: tuple[str, ...]) -> PathExpression | None:
        element_type = self._element_type(decl)
        if element_type is None:
            return None
        try:
            return PathExpression(self.db.schema, element_type, attributes)
        except Exception:
            return None

    def _element_type(self, decl) -> str | None:
        if decl.is_extent:
            return decl.source.variable
        if decl.source.attributes:
            return None
        declared = self.db.var_type(decl.source.variable)
        if declared is None:
            return None
        gom_type = self.db.schema.lookup(declared)
        if isinstance(gom_type, (SetType, ListType)):
            return gom_type.element_type
        return declared
