"""Object identity and object instances.

An object instance is the triple ``(i, v, t)`` of the paper (section 2.2):
an invisible, lifetime-invariant identifier ``i``, a value ``v``, and a
type ``t``.  Values of atomic types carry no identity — their value *is*
their identity — so atomic values appear directly wherever an OID could.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from typing import Any, Union

from repro.gom.types import NULL, Null


@total_ordering
@dataclass(frozen=True)
class OID:
    """A system-generated object identifier.

    OIDs are invisible to the database user in GOM; here they surface as
    opaque, hashable, totally ordered handles (ordering is needed because
    OIDs serve as B+ tree keys).  The repr ``i42`` matches the paper's
    ``i0, i1, ...`` notation.
    """

    value: int

    def __repr__(self) -> str:
        return f"i{self.value}"

    # Written by hand: the generated pair builds and compares ``(value,)``
    # tuples, and rows (tuples, which do not cache their hash) re-enter
    # them once per cell on every set or dict operation.
    def __hash__(self) -> int:
        return hash(self.value)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, OID):
            return NotImplemented
        return self.value < other.value


#: A cell of an access support relation or an attribute slot: either an
#: OID, an atomic value (its value is its identity), or NULL.
Cell = Union[OID, str, int, float, bool, Null]


@dataclass
class ObjectInstance:
    """The stored representation of one object: ``(oid, value, type)``.

    ``value`` is, depending on the constructor of ``type_name``:

    * a ``dict`` attribute→Cell for tuple-structured objects (attributes a
      fresh instance does not define hold :data:`~repro.gom.types.NULL`);
    * a ``set`` of Cells for set-structured objects;
    * a ``list`` of Cells for list-structured objects.
    """

    oid: OID
    type_name: str
    value: Any = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"ObjectInstance({self.oid}, {self.type_name}, {self.value!r})"


def is_oid(cell: Cell) -> bool:
    """True when ``cell`` is an object identifier (not NULL, not atomic)."""
    return isinstance(cell, OID)


def is_defined(cell: Cell) -> bool:
    """True when ``cell`` is not the NULL value."""
    return cell is not NULL
