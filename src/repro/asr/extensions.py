"""The four extensions of an access support relation (Defs. 3.4–3.7).

Given the auxiliary relations ``E_0 … E_{n-1}`` of a path:

* ``E_can   = E_0 ⋈ E_1 ⋈ … ⋈ E_{n-1}``      — complete paths only;
* ``E_full  = E_0 ⟗ E_1 ⟗ … ⟗ E_{n-1}``      — all maximal partial paths;
* ``E_left  = ((E_0 ⟕ E_1) ⟕ …) ⟕ E_{n-1}``  — partial paths from ``t_0``;
* ``E_right = E_0 ⟖ (… ⟖ (E_{n-2} ⟖ E_{n-1}))`` — partial paths into ``t_n``.

The natural-join chain is associative; the outer-join chains are
evaluated with the parenthesization the definitions prescribe (left
fold for full/left, right fold for right-complete).  With the
NULL-keys-never-match rule this computes exactly the maximal-partial-path
semantics illustrated by the paper's Company example, which the test
suite cross-checks against a direct object-graph oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from repro.asr.auxiliary import auxiliary_relations
from repro.asr.relation import JoinKind, Relation, fold_join, fold_join_right
from repro.gom.types import NULL
from repro.errors import RelationError
from repro.gom.database import ObjectBase
from repro.gom.paths import PathExpression


class Extension(str, Enum):
    """Which (partial) paths an access support relation stores."""

    CANONICAL = "can"
    FULL = "full"
    LEFT = "left"
    RIGHT = "right"

    @property
    def join_kind(self) -> JoinKind:
        return _JOIN_OF_EXTENSION[self]

    def supports_query(self, i: int, j: int, n: int) -> bool:
        """Eq. 35 applicability: can ``Q_{i,j}`` use this extension?

        * canonical — only the whole path (``i = 0`` and ``j = n``);
        * left-complete — any prefix (``i = 0``);
        * right-complete — any suffix (``j = n``);
        * full — any sub-range.
        """
        if self is Extension.CANONICAL:
            return i == 0 and j == n
        if self is Extension.LEFT:
            return i == 0
        if self is Extension.RIGHT:
            return j == n
        return True


_JOIN_OF_EXTENSION = {
    Extension.CANONICAL: JoinKind.NATURAL,
    Extension.FULL: JoinKind.FULL_OUTER,
    Extension.LEFT: JoinKind.LEFT_OUTER,
    Extension.RIGHT: JoinKind.RIGHT_OUTER,
}


def compose_extension(
    auxiliary: Sequence[Relation], extension: Extension
) -> Relation:
    """Compose pre-built auxiliary relations into the requested extension.

    The empty-set rule of Definition 3.3 puts tuples ``(o, set, NULL)``
    into the auxiliary relations; at the *last* step such tuples would
    survive even an inner-join chain.  Definition 3.4 states the canonical
    extension holds complete paths with "no NULL value somewhere along the
    path", and right-complete paths must reach ``t_n``, so those two
    extensions post-filter trailing empty-set stubs.
    """
    if not auxiliary:
        raise RelationError("a path has at least one auxiliary relation")
    if extension is Extension.RIGHT:
        joined = fold_join_right(list(auxiliary), JoinKind.RIGHT_OUTER)
        return joined.where(lambda row: row[-1] is not NULL)
    joined = fold_join(list(auxiliary), extension.join_kind)
    if extension is Extension.CANONICAL:
        return joined.complete_rows()
    return joined


def build_extension(
    db: ObjectBase, path: PathExpression, extension: Extension
) -> Relation:
    """Materialize the extension of the ASR for ``path`` from the object base."""
    return compose_extension(auxiliary_relations(db, path), extension)
