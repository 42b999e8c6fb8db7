"""Path expressions (Definition 3.1 of the paper).

A path expression ``t0.A1.….An`` is valid iff for each step either

* ``t_{i-1}`` is a tuple type declaring ``A_i : t_i`` (single-valued), or
* ``t_{i-1}`` declares ``A_i : t'_i`` where ``t'_i`` is a set (or list)
  type over ``t_i`` — a **set occurrence** at ``A_i``.

A path with no set occurrence is called **linear**.  With ``k`` set
occurrences the associated access support relation has arity
``m + 1 = n + k + 1`` (Definition 3.2): every set occurrence contributes
an extra column holding the collection's own OID between the referencing
object and the element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import PathError
from repro.gom.schema import Schema
from repro.gom.types import AtomicType, ListType, SetType, TupleType


@dataclass(frozen=True)
class PathStep:
    """One attribute hop ``A_i`` of a path expression.

    ``domain_type`` is ``t_{i-1}``, ``range_type`` is ``t_i`` (for a set
    occurrence this is the *element* type), and ``collection_type`` names
    ``t'_i`` when the step is a set occurrence, else ``None``.
    """

    attribute: str
    domain_type: str
    range_type: str
    collection_type: str | None = None

    @property
    def is_set_occurrence(self) -> bool:
        return self.collection_type is not None


@dataclass(frozen=True)
class PathColumn:
    """One column ``S_l`` of the access support relation for a path.

    ``type_name`` is the column's domain (an object type, collection type,
    or atomic type name); ``step_index`` is the 1-based index ``i`` of the
    attribute ``A_i`` that produced the column (0 for the anchor column
    ``S_0``); ``is_collection`` marks the extra column a set occurrence
    inserts for the collection's own OID.
    """

    type_name: str
    step_index: int
    is_collection: bool = False


class PathExpression:
    """A validated path expression over a schema.

    Instances are immutable and hashable; equality is structural on
    ``(anchor_type, attributes)``.

    Examples
    --------
    >>> path = PathExpression(schema, "ROBOT",
    ...                       ["Arm", "MountedTool", "ManufacturedBy", "Location"])
    >>> path.n, path.k, path.m
    (4, 0, 4)
    >>> str(path)
    'ROBOT.Arm.MountedTool.ManufacturedBy.Location'
    """

    def __init__(self, schema: Schema, anchor_type: str, attributes: Sequence[str]):
        if not attributes:
            raise PathError("a path expression needs at least one attribute")
        anchor = schema.lookup(anchor_type)
        if not isinstance(anchor, TupleType):
            raise PathError(
                f"path anchor {anchor_type!r} must be a tuple-structured type"
            )
        self.schema = schema
        self.anchor_type = anchor_type
        self.attributes: tuple[str, ...] = tuple(attributes)
        #: The path length (number of attributes).
        self.n = len(self.attributes)
        self.steps: tuple[PathStep, ...] = tuple(
            self._resolve_steps(schema, anchor_type, self.attributes)
        )
        self.columns: tuple[PathColumn, ...] = tuple(self._build_columns())
        #: ``column_of(i)`` for every type index ``i`` (asked per query).
        self._type_columns: tuple[int, ...] = tuple(
            c for c, column in enumerate(self.columns) if not column.is_collection
        )
        #: Paths key the per-shape memos asked per query: hash once.
        self._hash = hash((self.anchor_type, self.attributes))

    @staticmethod
    def _resolve_steps(
        schema: Schema, anchor_type: str, attributes: Sequence[str]
    ) -> list[PathStep]:
        steps: list[PathStep] = []
        current = anchor_type
        for position, attribute in enumerate(attributes, start=1):
            current_type = schema.lookup(current)
            if not isinstance(current_type, TupleType):
                raise PathError(
                    f"step {position} ({attribute!r}): domain type {current!r} "
                    "is not tuple-structured"
                )
            declared = schema.attribute_type(current, attribute)
            if isinstance(declared, (SetType, ListType)):
                element = schema.lookup(declared.element_type)
                if isinstance(element, (SetType, ListType)):
                    raise PathError(
                        f"step {position} ({attribute!r}): nested collection "
                        f"type {declared.name!r} is not allowed in paths"
                    )
                steps.append(
                    PathStep(attribute, current, declared.element_type, declared.name)
                )
                current = declared.element_type
            else:
                steps.append(PathStep(attribute, current, declared.name))
                current = declared.name
            if position < len(attributes) and isinstance(
                schema.lookup(current), AtomicType
            ):
                raise PathError(
                    f"step {position} ({attribute!r}) reaches atomic type "
                    f"{current!r} but the path continues"
                )
        return steps

    def _build_columns(self) -> list[PathColumn]:
        columns = [PathColumn(self.anchor_type, 0)]
        for index, step in enumerate(self.steps, start=1):
            if step.is_set_occurrence:
                assert step.collection_type is not None
                columns.append(PathColumn(step.collection_type, index, True))
            columns.append(PathColumn(step.range_type, index))
        return columns

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, schema: Schema, text: str) -> "PathExpression":
        """Parse ``"t0.A1.….An"`` — the first component names the anchor."""
        parts = [part.strip() for part in text.split(".")]
        if len(parts) < 2 or not all(parts):
            raise PathError(
                f"cannot parse path expression {text!r}: expected 't0.A1.….An'"
            )
        return cls(schema, parts[0], parts[1:])

    # ------------------------------------------------------------------
    # derived properties
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """The number of set occurrences in the path."""
        return sum(1 for step in self.steps if step.is_set_occurrence)

    @property
    def m(self) -> int:
        """The last column index of the access support relation (m = n + k)."""
        return self.n + self.k

    @property
    def arity(self) -> int:
        """The number of columns of the access support relation (m + 1)."""
        return self.m + 1

    @property
    def is_linear(self) -> bool:
        """True when the path contains no set occurrence."""
        return self.k == 0

    @property
    def types(self) -> tuple[str, ...]:
        """The type names ``t_0, …, t_n`` along the path."""
        return (self.anchor_type,) + tuple(step.range_type for step in self.steps)

    def column_of(self, i: int) -> int:
        """The ASR column index holding OIDs of type ``t_i``.

        ``column_of(0) == 0``; for ``i >= 1`` this is ``i`` plus the number
        of set occurrences at or before ``A_i`` (the collection OID column
        precedes the element column).
        """
        if not 0 <= i <= self.n:
            raise PathError(f"type index {i} out of range 0..{self.n}")
        return self._type_columns[i]

    def type_index_of_column(self, column: int) -> int:
        """Inverse of :meth:`column_of` (collection columns map to their step)."""
        if not 0 <= column <= self.m:
            raise PathError(f"column {column} out of range 0..{self.m}")
        return self.columns[column].step_index

    def column_labels(self) -> list[str]:
        """Human-readable column labels, matching the paper's tables."""
        labels = []
        for column in self.columns:
            gom_type = self.schema.lookup(column.type_name)
            prefix = "VALUE" if isinstance(gom_type, AtomicType) else "OID"
            labels.append(f"{prefix}_{column.type_name}")
        return labels

    @property
    def terminal_is_atomic(self) -> bool:
        """True when the path ends in an atomic value (e.g. ``….Name``)."""
        return isinstance(self.schema.lookup(self.types[-1]), AtomicType)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------

    def __str__(self) -> str:
        return ".".join((self.anchor_type,) + self.attributes)

    def __repr__(self) -> str:
        return f"PathExpression({self})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathExpression):
            return NotImplemented
        return (
            self.anchor_type == other.anchor_type
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return self._hash
