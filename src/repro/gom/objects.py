"""Object identity and object instances.

An object instance is the triple ``(i, v, t)`` of the paper (section 2.2):
an invisible, lifetime-invariant identifier ``i``, a value ``v``, and a
type ``t``.  Values of atomic types carry no identity — their value *is*
their identity — so atomic values appear directly wherever an OID could.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Union

from repro.gom.types import NULL, Null


class OID(NamedTuple):
    """A system-generated object identifier.

    OIDs are invisible to the database user in GOM; here they surface as
    opaque, hashable, totally ordered handles (ordering is needed because
    OIDs serve as B+ tree keys).  The repr ``i42`` matches the paper's
    ``i0, i1, ...`` notation.

    A one-field tuple, so hashing, equality and ordering — which rows
    (tuples, which do not cache their hash) re-enter once per cell on
    every set or dict operation — run in C without entering bytecode,
    and still by *value*: set iteration order stays a function of the
    data, never of addresses.  ``OID(7)`` is not ``7``.
    """

    value: int

    def __repr__(self) -> str:
        return f"i{self.value}"


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
