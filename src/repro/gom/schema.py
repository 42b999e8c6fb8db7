"""Schema: the catalog of GOM type definitions.

A :class:`Schema` registers tuple, set, and list types (atomic types are
built in), resolves type names, computes the full attribute map of a tuple
type under (multiple) inheritance, and answers subtype questions.  It
performs the static legality checks of section 2.1 of the paper:

* supertype lists may only name tuple-structured types;
* inheritance must be acyclic;
* attributes inherited from several supertypes must agree on their
  constrained type (GOM's "inherits *all* attributes" rule leaves genuine
  clashes undefined, so we reject them);
* set/list element types must not themselves be collection types
  (no powersets, footnote 2 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.gom.types import (
    BUILTIN_ATOMIC_TYPES,
    AtomicType,
    GomType,
    ListType,
    SetType,
    TupleType,
)


class Schema:
    """A mutable catalog of type definitions.

    Example — the robot schema of section 2.2::

        schema = Schema()
        schema.define_tuple("MANUFACTURER", {"Name": "STRING", "Location": "STRING"})
        schema.define_tuple("TOOL", {"Function": "STRING",
                                     "ManufacturedBy": "MANUFACTURER"})
        schema.define_tuple("ARM", {"Kinematics": "STRING", "MountedTool": "TOOL"})
        schema.define_tuple("ROBOT", {"Name": "STRING", "Arm": "ARM"})
        schema.define_set("ROBOT_SET", "ROBOT")
    """

    def __init__(self) -> None:
        self._types: dict[str, GomType] = {t.name: t for t in BUILTIN_ATOMIC_TYPES}
        #: ``attributes_of`` per tuple type name; :meth:`define` clears it.
        self._attributes: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def define(self, gom_type: GomType) -> GomType:
        """Register an already-constructed type object."""
        name = gom_type.name
        if name in self._types:
            raise SchemaError(f"type {name!r} is already defined")
        if isinstance(gom_type, TupleType):
            self._check_tuple(gom_type)
        elif isinstance(gom_type, (SetType, ListType)):
            self._check_collection(gom_type)
        elif not isinstance(gom_type, AtomicType):
            raise SchemaError(f"unknown kind of type object: {gom_type!r}")
        self._types[name] = gom_type
        self._attributes.clear()
        return gom_type

    def define_tuple(
        self,
        name: str,
        attributes: Mapping[str, str],
        supertypes: Iterable[str] = (),
        byte_size: int = 0,
    ) -> TupleType:
        """Define ``type name is supertypes (...) [a1: t1, ...]``."""
        return self.define(  # type: ignore[return-value]
            TupleType(name, dict(attributes), tuple(supertypes), byte_size)
        )

    def define_set(self, name: str, element_type: str) -> SetType:
        """Define ``type name is {element_type}``."""
        return self.define(SetType(name, element_type))  # type: ignore[return-value]

    def define_list(self, name: str, element_type: str) -> ListType:
        """Define ``type name is <element_type>``."""
        return self.define(ListType(name, element_type))  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # validation helpers
    # ------------------------------------------------------------------

    def _check_tuple(self, t: TupleType) -> None:
        for sup_name in t.supertypes:
            sup = self._types.get(sup_name)
            if sup is None:
                raise SchemaError(
                    f"type {t.name!r}: unknown supertype {sup_name!r} "
                    "(supertypes must be defined first)"
                )
            if not isinstance(sup, TupleType):
                raise SchemaError(
                    f"type {t.name!r}: supertype {sup_name!r} is not tuple-structured"
                )
        # Multiple-inheritance attribute clashes: collect the full inherited
        # attribute map and require agreement on types.
        merged: dict[str, str] = {}
        for sup_name in t.supertypes:
            for attr, attr_type in self._attributes_of_name(sup_name).items():
                if attr in merged and merged[attr] != attr_type:
                    raise SchemaError(
                        f"type {t.name!r}: attribute {attr!r} inherited with "
                        f"conflicting types {merged[attr]!r} and {attr_type!r}"
                    )
                merged[attr] = attr_type
        for attr, attr_type in t.attributes.items():
            if attr in merged and merged[attr] != attr_type:
                raise SchemaError(
                    f"type {t.name!r}: attribute {attr!r} redeclared with type "
                    f"{attr_type!r}, inherited as {merged[attr]!r}"
                )

    def _check_collection(self, t: SetType | ListType) -> None:
        element = self._types.get(t.element_type)
        if element is not None and element.is_collection():
            raise SchemaError(
                f"type {t.name!r}: element type {t.element_type!r} is a "
                "collection type (powersets / nested collections are not "
                "permitted in paths, paper footnote 2)"
            )

    def validate(self) -> None:
        """Check that every referenced type name is defined.

        Registration is deliberately lazy about *forward* references in
        attribute positions so that mutually recursive schemas can be
        declared; call :meth:`validate` once the schema is complete.
        """
        for t in self._types.values():
            if isinstance(t, TupleType):
                for attr, attr_type in t.attributes.items():
                    if attr_type not in self._types:
                        raise SchemaError(
                            f"type {t.name!r}: attribute {attr!r} references "
                            f"undefined type {attr_type!r}"
                        )
            elif isinstance(t, (SetType, ListType)):
                if t.element_type not in self._types:
                    raise SchemaError(
                        f"type {t.name!r}: element type {t.element_type!r} "
                        "is undefined"
                    )
                self._check_collection(t)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[GomType]:
        return iter(self._types.values())

    def lookup(self, name: str) -> GomType:
        """Return the type registered under ``name`` or raise SchemaError."""
        try:
            return self._types[name]
        except KeyError:
            raise SchemaError(f"unknown type {name!r}") from None

    def tuple_type(self, name: str) -> TupleType:
        t = self.lookup(name)
        if not isinstance(t, TupleType):
            raise SchemaError(f"type {name!r} is not tuple-structured")
        return t

    def collection_type(self, name: str) -> SetType | ListType:
        t = self.lookup(name)
        if not isinstance(t, (SetType, ListType)):
            raise SchemaError(f"type {name!r} is not a collection type")
        return t

    def type_names(self) -> list[str]:
        return list(self._types)

    # ------------------------------------------------------------------
    # inheritance
    # ------------------------------------------------------------------

    def supertypes_of(self, name: str) -> list[str]:
        """All (transitive) supertypes of tuple type ``name``, nearest first."""
        t = self.tuple_type(name)
        seen: list[str] = []
        frontier = list(t.supertypes)
        while frontier:
            sup = frontier.pop(0)
            if sup in seen:
                continue
            seen.append(sup)
            frontier.extend(self.tuple_type(sup).supertypes)
        return seen

    def subtypes_of(self, name: str) -> list[str]:
        """All (transitive) subtypes of ``name``, excluding ``name`` itself."""
        result = []
        for t in self._types.values():
            if isinstance(t, TupleType) and t.name != name:
                if name in self.supertypes_of(t.name):
                    result.append(t.name)
        return result

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True when ``sub`` conforms to the upper bound ``sup``.

        Every type conforms to itself; a tuple type conforms to each of its
        transitive supertypes.
        """
        if sub == sup:
            return True
        t = self._types.get(sub)
        if isinstance(t, TupleType):
            return sup in self.supertypes_of(sub)
        return False

    def attributes_of(self, name: str) -> dict[str, str]:
        """The full attribute map of tuple type ``name`` incl. inherited ones.

        Merged once per type name and shared by every caller, which
        must not mutate it; :meth:`define` drops the merged maps.
        """
        attributes = self._attributes.get(name)
        if attributes is None:
            attributes = self._attributes[name] = self._attributes_of_name(name)
        return attributes

    def _attributes_of_name(self, name: str) -> dict[str, str]:
        t = self.tuple_type(name)
        merged: dict[str, str] = {}
        for sup in t.supertypes:
            merged.update(self._attributes_of_name(sup))
        merged.update(t.attributes)
        return merged

    def attribute_type(self, tuple_name: str, attribute: str) -> GomType:
        """Resolve the constrained type of ``tuple_name.attribute``."""
        attrs = self.attributes_of(tuple_name)
        if attribute not in attrs:
            raise SchemaError(
                f"type {tuple_name!r} has no attribute {attribute!r} "
                f"(known: {sorted(attrs)})"
            )
        return self.lookup(attrs[attribute])
