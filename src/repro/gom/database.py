"""The object base: typed instances, extents, variables, updates, events.

:class:`ObjectBase` is the in-memory store of GOM instances.  It enforces
strong typing (attribute values must conform to the declared type, where
the declared type is an *upper bound* — subtype instances are accepted),
maintains per-type extents, database variables (the paper's
``var OurRobots: ROBOT_SET``), and a reverse-reference index used by
backward traversal and by index maintenance.

Every primitive mutation emits an event (:mod:`repro.gom.events`) after it
has been applied, so that access support relations can be maintained
incrementally (paper, section 6).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.errors import ObjectBaseError, TypingError
from repro.gom.events import (
    AttributeSet,
    Event,
    ObjectCreated,
    ObjectDeleted,
    SetInserted,
    SetRemoved,
)
from repro.gom.objects import OID, Cell, ObjectInstance
from repro.gom.schema import Schema
from repro.gom.types import NULL, AtomicType, ListType, SetType, TupleType


class ObjectBase:
    """A strongly typed, event-publishing object store.

    Parameters
    ----------
    schema:
        The type catalog instances must conform to.  The schema may still
        be extended after the object base is created.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._objects: dict[OID, ObjectInstance] = {}
        self._extents: dict[str, set[OID]] = {}
        self._variables: dict[str, tuple[Cell, str | None]] = {}
        self._referrers: dict[OID, set[OID]] = {}
        self._listeners: list[Callable[[Event], None]] = []
        self._next_oid = 0

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[[Event], None]) -> None:
        """Register ``listener`` to receive every subsequent change event."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[Event], None]) -> None:
        self._listeners.remove(listener)

    def _emit(self, event: Event) -> None:
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # instantiation
    # ------------------------------------------------------------------

    def _allocate(self, type_name: str, value: Any) -> OID:
        oid = OID(self._next_oid)
        self._next_oid += 1
        self._objects[oid] = ObjectInstance(oid, type_name, value)
        self._extents.setdefault(type_name, set()).add(oid)
        return oid

    def new(self, type_name: str, **attributes: Any) -> OID:
        """Instantiate a tuple-structured type.

        All attributes (including inherited ones) are initialized to NULL,
        then the keyword arguments are applied through the type-checked
        :meth:`set_attr` path.  Returns the new object's OID.
        """
        tuple_type = self.schema.tuple_type(type_name)
        all_attrs = self.schema.attributes_of(tuple_type.name)
        value = {attr: NULL for attr in all_attrs}
        oid = self._allocate(type_name, value)
        self._emit(ObjectCreated(oid, type_name))
        for attr, attr_value in attributes.items():
            self.set_attr(oid, attr, attr_value)
        return oid

    def new_set(self, type_name: str, elements: Iterable[Cell] = ()) -> OID:
        """Instantiate a set-structured type, initially empty, then fill it."""
        set_type = self.schema.collection_type(type_name)
        if not isinstance(set_type, SetType):
            raise TypingError(f"{type_name!r} is not a set type")
        oid = self._allocate(type_name, set())
        self._emit(ObjectCreated(oid, type_name))
        for element in elements:
            self.set_insert(oid, element)
        return oid

    def new_list(self, type_name: str, elements: Iterable[Cell] = ()) -> OID:
        """Instantiate a list-structured type, initially empty, then extend it."""
        list_type = self.schema.collection_type(type_name)
        if not isinstance(list_type, ListType):
            raise TypingError(f"{type_name!r} is not a list type")
        oid = self._allocate(type_name, [])
        self._emit(ObjectCreated(oid, type_name))
        for element in elements:
            self.list_append(oid, element)
        return oid

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def __contains__(self, oid: OID) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def get(self, oid: OID) -> ObjectInstance:
        """Dereference ``oid`` or raise :class:`ObjectBaseError`."""
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectBaseError(f"dangling OID {oid!r}") from None

    def type_of(self, oid: OID) -> str:
        return self.get(oid).type_name

    def attr(self, oid: OID, attribute: str) -> Cell:
        """Read ``oid.attribute`` (NULL when undefined)."""
        instance = self.get(oid)
        value = instance.value
        if not isinstance(value, dict):
            raise ObjectBaseError(f"{oid!r} is not tuple-structured")
        if attribute not in value:
            raise ObjectBaseError(
                f"{instance.type_name!r} object {oid!r} has no attribute "
                f"{attribute!r}"
            )
        return value[attribute]

    def members(self, oid: OID) -> frozenset[Cell] | tuple[Cell, ...]:
        """The elements of a set or list object, as an immutable snapshot."""
        value = self.get(oid).value
        if isinstance(value, set):
            return frozenset(value)
        if isinstance(value, list):
            return tuple(value)
        raise ObjectBaseError(f"{oid!r} is not collection-structured")

    def extent(self, type_name: str, include_subtypes: bool = True) -> set[OID]:
        """All OIDs of instances of ``type_name`` (and subtypes by default)."""
        self.schema.lookup(type_name)
        result = set(self._extents.get(type_name, ()))
        if include_subtypes:
            for sub in self.schema.subtypes_of(type_name) if self._is_tuple(type_name) else ():
                result |= self._extents.get(sub, set())
        return result

    def in_extent(self, type_name: str, cell: Cell) -> bool:
        """Whether ``cell`` is in ``extent(type_name)``, without building it."""
        instance = self._objects.get(cell) if isinstance(cell, OID) else None
        return instance is not None and self.schema.is_subtype(
            instance.type_name, type_name
        )

    def _is_tuple(self, type_name: str) -> bool:
        return isinstance(self.schema.lookup(type_name), TupleType)

    def referrers(self, oid: OID) -> set[OID]:
        """OIDs of objects that reference ``oid`` via an attribute or membership."""
        return set(self._referrers.get(oid, ()))

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------

    def set_var(self, name: str, value: Cell, type_name: str | None = None) -> None:
        """Bind a database variable, e.g. ``var Mercedes: Company``."""
        if type_name is not None:
            self._check_conforms(value, type_name, f"variable {name!r}")
        self._variables[name] = (value, type_name)

    def get_var(self, name: str) -> Cell:
        try:
            return self._variables[name][0]
        except KeyError:
            raise ObjectBaseError(f"unknown variable {name!r}") from None

    def var_type(self, name: str) -> str | None:
        try:
            return self._variables[name][1]
        except KeyError:
            raise ObjectBaseError(f"unknown variable {name!r}") from None

    # ------------------------------------------------------------------
    # typing
    # ------------------------------------------------------------------

    def _check_conforms(self, value: Cell, declared: str, where: str) -> None:
        if value is NULL:
            return
        declared_type = self.schema.lookup(declared)
        if isinstance(declared_type, AtomicType):
            if isinstance(value, OID):
                raise TypingError(
                    f"{where}: expected atomic {declared!r}, got OID {value!r}"
                )
            if not declared_type.accepts(value):
                raise TypingError(
                    f"{where}: value {value!r} is not a legal {declared!r}"
                )
            return
        if not isinstance(value, OID):
            raise TypingError(
                f"{where}: expected an object of type {declared!r}, got the "
                f"atomic value {value!r}"
            )
        actual = self.type_of(value)
        if not self.schema.is_subtype(actual, declared):
            raise TypingError(
                f"{where}: object {value!r} has type {actual!r}, which is not "
                f"a subtype of the declared {declared!r}"
            )

    # ------------------------------------------------------------------
    # reverse-reference bookkeeping
    # ------------------------------------------------------------------

    def _ref_added(self, source: OID, target: Cell) -> None:
        if isinstance(target, OID):
            self._referrers.setdefault(target, set()).add(source)

    def _ref_removed(self, source: OID, target: Cell) -> None:
        if isinstance(target, OID):
            holders = self._referrers.get(target)
            if holders is not None and not self._still_references(source, target):
                holders.discard(source)
                if not holders:
                    del self._referrers[target]

    def _still_references(self, source: OID, target: Cell) -> bool:
        value = self._objects[source].value
        if isinstance(value, dict):
            return target in value.values()
        return target in value

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def set_attr(self, oid: OID, attribute: str, value: Cell) -> None:
        """Execute ``oid.attribute := value`` with strong-typing checks."""
        instance = self.get(oid)
        attrs = self.schema.attributes_of(instance.type_name)
        if attribute not in attrs:
            raise ObjectBaseError(
                f"{instance.type_name!r} has no attribute {attribute!r}"
            )
        self._check_conforms(value, attrs[attribute], f"{oid!r}.{attribute}")
        old = instance.value.get(attribute, NULL)
        if old == value and type(old) is type(value):
            return
        instance.value[attribute] = value
        self._ref_removed(oid, old)
        self._ref_added(oid, value)
        self._emit(AttributeSet(oid, instance.type_name, attribute, old, value))

    def set_insert(self, set_oid: OID, element: Cell) -> bool:
        """Execute ``insert element into set_oid`` (the paper's ``ins``).

        Returns True when the element was actually added (sets ignore
        duplicate insertions).
        """
        instance = self.get(set_oid)
        set_type = self.schema.lookup(instance.type_name)
        if not isinstance(set_type, SetType):
            raise ObjectBaseError(f"{set_oid!r} is not set-structured")
        if element is NULL:
            raise TypingError("NULL cannot be a set member")
        self._check_conforms(element, set_type.element_type, f"insert into {set_oid!r}")
        if element in instance.value:
            return False
        instance.value.add(element)
        self._ref_added(set_oid, element)
        self._emit(
            SetInserted(set_oid, instance.type_name, element, self._owner_of(set_oid))
        )
        return True

    def set_remove(self, set_oid: OID, element: Cell) -> bool:
        """Execute ``remove element from set_oid``; True when it was a member."""
        instance = self.get(set_oid)
        if not isinstance(self.schema.lookup(instance.type_name), SetType):
            raise ObjectBaseError(f"{set_oid!r} is not set-structured")
        if element not in instance.value:
            return False
        instance.value.discard(element)
        self._ref_removed(set_oid, element)
        self._emit(
            SetRemoved(set_oid, instance.type_name, element, self._owner_of(set_oid))
        )
        return True

    def list_append(self, list_oid: OID, element: Cell) -> None:
        """Append to a list object (lists are treated like sets by ASRs)."""
        instance = self.get(list_oid)
        list_type = self.schema.lookup(instance.type_name)
        if not isinstance(list_type, ListType):
            raise ObjectBaseError(f"{list_oid!r} is not list-structured")
        self._check_conforms(element, list_type.element_type, f"append to {list_oid!r}")
        instance.value.append(element)
        self._ref_added(list_oid, element)
        self._emit(
            SetInserted(list_oid, instance.type_name, element, self._owner_of(list_oid))
        )

    def _owner_of(self, collection_oid: OID) -> OID | None:
        """The unique tuple object holding ``collection_oid``, if unambiguous."""
        holders = [
            source
            for source in self._referrers.get(collection_oid, ())
            if isinstance(self._objects[source].value, dict)
        ]
        if len(holders) == 1:
            return holders[0]
        return None

    def delete(self, oid: OID) -> None:
        """Remove ``oid``, nulling out every reference that points at it.

        Incoming attribute references become NULL; incoming collection
        memberships are removed.  Each induced change emits its own event
        before the final :class:`ObjectDeleted`.
        """
        instance = self.get(oid)
        for source in list(self._referrers.get(oid, ())):
            source_value = self._objects[source].value
            if isinstance(source_value, dict):
                for attr, cell in list(source_value.items()):
                    if cell == oid:
                        self.set_attr(source, attr, NULL)
            elif isinstance(source_value, set):
                self.set_remove(source, oid)
            else:
                while oid in source_value:
                    source_value.remove(oid)
                    self._ref_removed(source, oid)
                    self._emit(
                        SetRemoved(
                            source,
                            self._objects[source].type_name,
                            oid,
                            self._owner_of(source),
                        )
                    )
        # Drop outgoing references from the reverse index.
        value = instance.value
        targets = value.values() if isinstance(value, dict) else list(value)
        for target in targets:
            if isinstance(target, OID):
                holders = self._referrers.get(target)
                if holders is not None:
                    holders.discard(oid)
                    if not holders:
                        del self._referrers[target]
        del self._objects[oid]
        self._extents[instance.type_name].discard(oid)
        self._referrers.pop(oid, None)
        self._emit(ObjectDeleted(oid, instance.type_name, value))

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------

    def objects(self) -> Iterator[ObjectInstance]:
        """Iterate over all stored instances (order unspecified)."""
        return iter(self._objects.values())
