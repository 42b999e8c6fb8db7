"""repro — access support relations for object bases.

A complete reproduction of Kemper & Moerkotte, *Access Support in Object
Bases* (SIGMOD 1990): the GOM object model, a page-granular storage
engine, access support relations with four extensions and arbitrary
lossless decompositions, incremental index maintenance, query processing
with and without access support, and the paper's full analytical cost
model with a physical-design advisor.

Most applications need only the re-exports below; see README.md for a
quickstart and DESIGN.md for the architecture.  The serving daemon's
parts (device model, breakers, healer, chaos, metrics, drift) are
imported from their subpackages.
"""

from repro.errors import (
    CostModelError,
    DecompositionError,
    InjectedFault,
    ObjectBaseError,
    ParseError,
    PathError,
    QueryError,
    RecoveryError,
    RelationError,
    ReproError,
    SchemaError,
    SimulatedCrash,
    StorageError,
    TypingError,
)
from repro.concurrency import ContextPool
from repro.context import ExecutionContext
from repro.errors import ExitHookError
from repro.faults import FaultInjector
from repro.gom import (
    NULL,
    ObjectBase,
    OID,
    PathExpression,
    Schema,
)
from repro.asr import (
    AccessSupportRelation,
    ASRManager,
    Decomposition,
    Extension,
    Relation,
    build_extension,
)
from repro.query import (
    BackwardQuery,
    ValueRangeQuery,
    ForwardQuery,
    Planner,
    QueryEvaluator,
    SelectExecutor,
    parse_select,
)
from repro.costmodel import (
    ApplicationProfile,
    DesignAdvisor,
    MixCostModel,
    OperationMix,
    QueryCostModel,
    QuerySpec,
    StorageModel,
    SystemParameters,
    UpdateCostModel,
    UpdateSpec,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "TypingError",
    "PathError",
    "ObjectBaseError",
    "RelationError",
    "DecompositionError",
    "StorageError",
    "QueryError",
    "ParseError",
    "CostModelError",
    "InjectedFault",
    "SimulatedCrash",
    "RecoveryError",
    "ExitHookError",
    # execution context / fault injection / concurrency
    "ExecutionContext",
    "FaultInjector",
    "ContextPool",
    # object model
    "NULL",
    "OID",
    "Schema",
    "ObjectBase",
    "PathExpression",
    # access support relations
    "Relation",
    "Extension",
    "build_extension",
    "Decomposition",
    "AccessSupportRelation",
    "ASRManager",
    # queries
    "ForwardQuery",
    "BackwardQuery",
    "ValueRangeQuery",
    "QueryEvaluator",
    "Planner",
    "SelectExecutor",
    "parse_select",
    # cost model
    "ApplicationProfile",
    "SystemParameters",
    "StorageModel",
    "QueryCostModel",
    "UpdateCostModel",
    "OperationMix",
    "QuerySpec",
    "UpdateSpec",
    "MixCostModel",
    "DesignAdvisor",
]
