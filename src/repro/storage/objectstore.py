"""Type-clustered object storage.

The cost model assumes "objects are clustered dependent on their type"
(section 5.5): the ``c_i`` objects of type ``t_i`` live on
``op_i = ⌈c_i / opp_i⌉`` dedicated pages with ``opp_i = ⌊PageSize/size_i⌋``
objects per page.  :class:`ClusteredObjectStore` realizes exactly that
layout for a live :class:`~repro.gom.database.ObjectBase` so the
simulator can charge page reads for object dereferences and exhaustive
extent scans — the operations that dominate *unsupported* query
evaluation (section 5.6).

The store is a physical overlay: it maps OIDs to page slots and counts
accesses; the object *contents* stay in the object base.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.storage.stats import resolve_buffer
from repro.gom.database import ObjectBase
from repro.gom.events import Event, ObjectCreated, ObjectDeleted
from repro.gom.objects import OID
from repro.storage.pages import DEFAULT_PAGE_SIZE, objects_per_page, pages_needed


class ClusteredObjectStore:
    """Assigns every object of a type to type-clustered pages.

    Parameters
    ----------
    object_sizes:
        ``type name → size_i`` in bytes.  Types without an entry fall back
        to ``default_object_size``.
    page_size:
        Net page capacity in bytes (Figure 3 default: 4056).
    """

    def __init__(
        self,
        object_sizes: dict[str, int] | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        default_object_size: int = 100,
    ) -> None:
        if default_object_size <= 0:
            raise StorageError("default object size must be positive")
        self.page_size = page_size
        self.object_sizes = dict(object_sizes or {})
        self.default_object_size = default_object_size
        self._slot_of: dict[OID, int] = {}
        self._count_of_type: dict[str, int] = {}
        self._free_slots: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, db: ObjectBase) -> None:
        """Register all existing objects and track future ones via events."""
        for instance in db.objects():
            self.register(instance.oid, instance.type_name)
        db.subscribe(self._on_event)

    def _on_event(self, event: Event) -> None:
        if isinstance(event, ObjectCreated):
            self.register(event.oid, event.type_name)
        elif isinstance(event, ObjectDeleted):
            self.unregister(event.oid, event.type_name)

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    def object_size(self, type_name: str) -> int:
        return self.object_sizes.get(type_name, self.default_object_size)

    def objects_per_page(self, type_name: str) -> int:
        """``opp_i`` (Eq. 17)."""
        return objects_per_page(self.object_size(type_name), self.page_size)

    def register(self, oid: OID, type_name: str) -> None:
        if oid in self._slot_of:
            raise StorageError(f"{oid!r} already registered")
        free = self._free_slots.get(type_name)
        if free:
            slot = free.pop()
        else:
            slot = self._count_of_type.get(type_name, 0)
            self._count_of_type[type_name] = slot + 1
        self._slot_of[oid] = slot

    def unregister(self, oid: OID, type_name: str) -> None:
        slot = self._slot_of.pop(oid, None)
        if slot is not None:
            self._free_slots.setdefault(type_name, []).append(slot)

    def page_of(self, oid: OID, type_name: str) -> tuple[str, int]:
        """The page identity holding ``oid``: ``(type, page number)``."""
        try:
            slot = self._slot_of[oid]
        except KeyError:
            raise StorageError(f"{oid!r} is not stored") from None
        return (type_name, slot // self.objects_per_page(type_name))

    def pages_of_type(self, type_name: str) -> int:
        """``op_i`` (Eq. 18) for the objects currently stored."""
        count = self._count_of_type.get(type_name, 0) - len(
            self._free_slots.get(type_name, ())
        )
        if count <= 0:
            return 0
        return pages_needed(count, self.objects_per_page(type_name))

    # ------------------------------------------------------------------
    # charged accesses
    # ------------------------------------------------------------------

    def access(self, oid: OID, type_name: str, context=None) -> None:
        """Charge the page read for dereferencing ``oid``."""
        buffer = resolve_buffer(context)
        if buffer is not None:
            buffer.touch(("obj",) + self.page_of(oid, type_name), "object")

    def write(self, oid: OID, type_name: str, context=None) -> None:
        """Charge the page write for updating ``oid`` in place."""
        buffer = resolve_buffer(context)
        if buffer is not None:
            buffer.touch_write(("obj",) + self.page_of(oid, type_name), "object")

    def scan_type(self, type_name: str, context=None) -> None:
        """Charge a full extent scan of ``type_name`` (``op_i`` page reads)."""
        buffer = resolve_buffer(context)
        if buffer is None:
            return
        for page in range(self.pages_of_type(type_name)):
            buffer.touch(("obj", type_name, page), "object")
