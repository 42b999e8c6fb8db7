"""Sharing of access support relations between paths (section 5.4).

Two path expressions that traverse a common attribute sub-chain

    t0 .A1.….Ai  .A_{i+1}.….A_{i+j}  .A_{i+j+1}.….An       (1)
    t0'.A1'.….Ai'.A_{i+1}.….A_{i+j}  .A'_{i+j+1}.….A'_{n'}  (2)

can share the partition over the common middle ``A_{i+1}.….A_{i+j}`` —
*in general only under the full extension*, because a shared partition
must contain every hop of the common sub-chain regardless of whether the
surrounding path prefix/suffix exists.  Exceptions (also per the paper):

* both paths start with the common part (``i = i' = 0``) — sharing is
  also legal for **left**-complete extensions;
* both paths end with the common part (``i+j = n``, ``i'+j = n'``) —
  sharing is also legal for **right**-complete extensions.

This module detects maximal shareable overlaps and proposes the induced
decompositions ``(0, i, i+j, n)`` / ``(0, i', i'+j, n')``.  It is
analysis only: every materialized ASR stores and maintains its own
partitions, and what sharing would save is the segment partition's
Eq. 15 size (``StoredPartition.byte_size``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.gom.paths import PathExpression


@dataclass(frozen=True)
class SharedSegment:
    """A common sub-chain of two paths, in type-index coordinates.

    The segment covers attributes ``A_{start_a+1} … A_{start_a+length}``
    of ``path_a`` and the analogous range of ``path_b``; the partitions
    over columns ``column_of(start) … column_of(start+length)`` of the two
    ASRs agree on every row carrying a hop of the segment.  Under the
    full extension a border object that no segment hop touches still
    enters a partition as a one-cell row (``(t, NULL, …, NULL)``) when
    that path's own prefix or suffix reaches it, so those rows belong to
    one path; the LEFT/RIGHT exceptions keep no such rows.
    """

    path_a: PathExpression
    path_b: PathExpression
    start_a: int
    start_b: int
    length: int

    @property
    def end_a(self) -> int:
        return self.start_a + self.length

    @property
    def end_b(self) -> int:
        return self.start_b + self.length

    def legal_extensions(self) -> set[Extension]:
        """Extensions under which this segment may be shared (section 5.4)."""
        legal = {Extension.FULL}
        if self.start_a == 0 and self.start_b == 0:
            legal.add(Extension.LEFT)
        if self.end_a == self.path_a.n and self.end_b == self.path_b.n:
            legal.add(Extension.RIGHT)
        return legal

    def decomposition_a(self) -> Decomposition:
        return _bordered(self.path_a, self.start_a, self.end_a)

    def decomposition_b(self) -> Decomposition:
        return _bordered(self.path_b, self.start_b, self.end_b)


def _bordered(path: PathExpression, start: int, end: int) -> Decomposition:
    borders = sorted({0, path.column_of(start), path.column_of(end), path.m})
    return Decomposition(tuple(borders))


def _hops(path: PathExpression) -> list[tuple[str, str, str, str | None]]:
    """A hashable signature per hop: (domain, attribute, range, collection)."""
    return [
        (step.domain_type, step.attribute, step.range_type, step.collection_type)
        for step in path.steps
    ]


def shareable_segments(
    path_a: PathExpression, path_b: PathExpression, min_length: int = 1
) -> list[SharedSegment]:
    """All maximal common sub-chains of the two paths.

    A sub-chain matches when the attribute hops agree exactly (same domain
    type, attribute name, range type, and set-occurrence shape), which
    guarantees the auxiliary relations are the same relations (and the
    partitions agree as :class:`SharedSegment` states).
    """
    hops_a, hops_b = _hops(path_a), _hops(path_b)
    segments: list[SharedSegment] = []
    for a in range(len(hops_a)):
        for b in range(len(hops_b)):
            if hops_a[a] != hops_b[b]:
                continue
            # Maximality: skip if the previous hops also match.
            if a > 0 and b > 0 and hops_a[a - 1] == hops_b[b - 1]:
                continue
            length = 0
            while (
                a + length < len(hops_a)
                and b + length < len(hops_b)
                and hops_a[a + length] == hops_b[b + length]
            ):
                length += 1
            if length >= min_length:
                segments.append(SharedSegment(path_a, path_b, a, b, length))
    return segments


def best_shared_design(
    path_a: PathExpression, path_b: PathExpression
) -> SharedSegment | None:
    """The longest shareable segment, or None when nothing overlaps."""
    segments = shareable_segments(path_a, path_b)
    if not segments:
        return None
    return max(segments, key=lambda segment: segment.length)
