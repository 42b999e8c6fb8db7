"""GOM — the Generic Object Model substrate (paper, section 2).

This subpackage implements the object model the paper uses as its research
vehicle: object identity, built-in value types, the tuple/set/list type
constructors, subtyping via (multiple) inheritance, strong typing, and
instantiation with NULL-initialized attributes.  On top of it live the
path expressions of Definition 3.1 and the object base with per-type
extents and update events that the access support relation machinery
subscribes to.
"""

from repro.gom.types import (
    NULL,
    AtomicType,
    GomType,
    ListType,
    Null,
    SetType,
    TupleType,
    BOOLEAN,
    CHAR,
    DECIMAL,
    FLOAT,
    INTEGER,
    STRING,
)
from repro.gom.schema import Schema
from repro.gom.objects import OID, ObjectInstance
from repro.gom.events import (
    AttributeSet,
    ObjectCreated,
    ObjectDeleted,
    SetInserted,
    SetRemoved,
)
from repro.gom.database import ObjectBase
from repro.gom.paths import PathExpression
from repro.gom.serialization import save, load

__all__ = [
    "NULL",
    "Null",
    "GomType",
    "AtomicType",
    "TupleType",
    "SetType",
    "ListType",
    "STRING",
    "INTEGER",
    "DECIMAL",
    "CHAR",
    "BOOLEAN",
    "FLOAT",
    "Schema",
    "OID",
    "ObjectInstance",
    "ObjectBase",
    "PathExpression",
    "save",
    "load",
    "ObjectCreated",
    "ObjectDeleted",
    "AttributeSet",
    "SetInserted",
    "SetRemoved",
]
