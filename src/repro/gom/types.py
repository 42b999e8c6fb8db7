"""The GOM type system (paper, section 2).

GOM provides a built-in collection of elementary *value* types whose
instances carry no identity (their value is their identity), and three
type constructors:

* the **tuple** constructor ``[a1: t1, ..., an: tn]`` aggregating typed
  attributes, with single or multiple inheritance from supertypes;
* the **set** constructor ``{t}``;
* the **list** constructor ``<t>``.

Types are referenced *by name*; resolution happens through
:class:`repro.gom.schema.Schema`, which allows mutually recursive type
definitions (a ``Product`` may reference a ``BasePartSET`` defined later).

The module also defines :data:`NULL`, the undefined value that every
attribute of a freshly instantiated tuple object holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import SchemaError


class Null:
    """The undefined value of GOM.

    A singleton: every occurrence of an undefined attribute is *the* value
    :data:`NULL`.  It is falsy, compares equal only to itself, and renders
    as ``NULL`` — matching the paper's relation listings, e.g. the tuple
    ``(i2, i5, i9, NULL, NULL, NULL)`` of the full extension example.
    """

    _instance: "Null | None" = None

    def __new__(cls) -> "Null":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        # By value, not by address: a set of rows holding NULL iterates
        # in the same order in every process.
        return 0x4E554C4C

    def __repr__(self) -> str:
        return "NULL"

    def __copy__(self) -> "Null":
        return self

    def __deepcopy__(self, memo: dict) -> "Null":
        return self

    def __reduce__(self):
        return (Null, ())


#: The one undefined value.  ``obj.attr is NULL`` tests definedness.
NULL = Null()


class GomType:
    """Abstract base of all GOM types.

    Concrete subclasses are :class:`AtomicType`, :class:`TupleType`,
    :class:`SetType` and :class:`ListType`.  A type is identified by its
    ``name``; two types with the same name are the same type as far as the
    schema is concerned.
    """

    name: str

    def is_set(self) -> bool:
        return isinstance(self, SetType)

    def is_list(self) -> bool:
        return isinstance(self, ListType)

    def is_collection(self) -> bool:
        return self.is_set() or self.is_list()


@dataclass(frozen=True)
class AtomicType(GomType):
    """A built-in elementary value type (``STRING``, ``INTEGER``, ...).

    ``pytypes`` lists the Python classes whose instances are acceptable
    values; ``byte_size`` is the nominal storage footprint used by the
    storage simulator when an atomic value terminates a path (the cost
    model's ``OIDsize`` applies to OID columns only, so atomic tail
    columns need their own size).
    """

    name: str
    pytypes: tuple[type, ...]
    byte_size: int = 8

    def accepts(self, value: Any) -> bool:
        """Return True when ``value`` is a legal instance of this type.

        ``bool`` is rejected for ``INTEGER`` despite being an ``int``
        subclass, because GOM distinguishes BOOLEAN from INTEGER.
        """
        if isinstance(value, bool) and bool not in self.pytypes:
            return False
        return isinstance(value, self.pytypes)

    def __repr__(self) -> str:
        return f"AtomicType({self.name})"


STRING = AtomicType("STRING", (str,), byte_size=16)
CHAR = AtomicType("CHAR", (str,), byte_size=1)
INTEGER = AtomicType("INTEGER", (int,), byte_size=8)
DECIMAL = AtomicType("DECIMAL", (int, float), byte_size=8)
FLOAT = AtomicType("FLOAT", (float,), byte_size=8)
BOOLEAN = AtomicType("BOOLEAN", (bool,), byte_size=1)

#: The atomic types every fresh :class:`~repro.gom.schema.Schema` knows.
BUILTIN_ATOMIC_TYPES: tuple[AtomicType, ...] = (
    STRING,
    CHAR,
    INTEGER,
    DECIMAL,
    FLOAT,
    BOOLEAN,
)


@dataclass(frozen=True)
class TupleType(GomType):
    """A tuple-structured type ``[a1: t1, ..., an: tn]`` with supertypes.

    ``attributes`` maps each *locally declared* attribute name to the name
    of its constrained type; inherited attributes are resolved by the
    schema (:meth:`repro.gom.schema.Schema.attributes_of`).  Attribute
    names must be pairwise distinct, which the constructor guarantees by
    using a mapping; clashes with inherited attributes are detected at
    schema registration time.
    """

    name: str
    attributes: Mapping[str, str]
    supertypes: tuple[str, ...] = ()
    #: Nominal object size in bytes for the storage simulator.  When zero,
    #: the simulator derives a size from the attribute count.
    byte_size: int = 0

    def __post_init__(self) -> None:
        if self.name in self.supertypes:
            raise SchemaError(f"type {self.name!r} cannot be its own supertype")
        object.__setattr__(self, "attributes", dict(self.attributes))
        object.__setattr__(self, "supertypes", tuple(self.supertypes))

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.attributes.items())), self.supertypes))

    def __repr__(self) -> str:
        attrs = ", ".join(f"{a}: {t}" for a, t in self.attributes.items())
        sup = f" supertypes ({', '.join(self.supertypes)})" if self.supertypes else ""
        return f"TupleType({self.name}{sup} [{attrs}])"


@dataclass(frozen=True)
class SetType(GomType):
    """A set-structured type ``{element_type}``.

    Set instances are unordered collections of distinct members, each
    constrained to ``element_type`` (or any subtype of it).  Powersets are
    not permitted (paper, footnote 2): the element type of a set must not
    itself be a set or list type — the schema enforces this on
    registration.
    """

    name: str
    element_type: str

    def __repr__(self) -> str:
        return f"SetType({self.name} = {{{self.element_type}}})"


@dataclass(frozen=True)
class ListType(GomType):
    """A list-structured type ``<element_type>``.

    The paper notes that access support on lists is analogous to sets; the
    library supports list-valued steps in path expressions by treating a
    list occurrence exactly like a set occurrence (the list OID column is
    followed by the element column).
    """

    name: str
    element_type: str

    def __repr__(self) -> str:
        return f"ListType({self.name} = <{self.element_type}>)"
