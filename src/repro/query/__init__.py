"""Query processing over object bases with access support relations.

Implements the two representative query shapes of section 5.1 —
forward queries ``Q_{i,j}(fw)`` and backward queries ``Q_{i,j}(bw)`` —
with two evaluation strategies:

* **unsupported** (section 5.6): pointer-chasing through the clustered
  object representation (forward) or exhaustive extent scanning
  (backward), charging object-page reads;
* **supported** (section 5.7): chained lookups through the decomposed
  access support relation's B+ trees, falling back to partition scans
  when the query's endpoint is not on a partition border.

The :mod:`repro.query.planner` applies the applicability rules of Eq. 35
to pick a strategy and is the one place a chosen plan is run, and :mod:`repro.query.parser` offers the small
SQL-like surface syntax used in the paper's examples (Queries 1–3).
"""

from repro.query.queries import BackwardQuery, ForwardQuery, Query, ValueRangeQuery
from repro.query.evaluator import EvaluationResult, QueryEvaluator
from repro.query.planner import Plan, Planner
from repro.query.parser import parse_select, SelectStatement
from repro.query.executor import CompiledSelect, ExecutionReport, SelectExecutor
from repro.query.validate import validate_select
from repro.query.cache import CompiledPlanCache, normalize_query
from repro.query.service import QueryOutcome, QueryService

__all__ = [
    "Query",
    "ForwardQuery",
    "BackwardQuery",
    "ValueRangeQuery",
    "QueryEvaluator",
    "EvaluationResult",
    "Planner",
    "Plan",
    "parse_select",
    "SelectStatement",
    "SelectExecutor",
    "CompiledSelect",
    "ExecutionReport",
    "validate_select",
    "CompiledPlanCache",
    "normalize_query",
    "QueryOutcome",
    "QueryService",
]
