"""Storage costs and B+ tree shape estimates (sections 4.3 and 5.5).

Implements Eqs. 13–28 over type indices (the cost model's ``m = n``
simplification — see the end of section 3 in the paper).

Two printed formulas are corrected here (documented in DESIGN.md):

* Eq. 20 (``pg``, non-leaf page count) is garbled in the available text;
  we use the level sum ``Σ_{l=1..ht} ⌈ap / B+fan^l⌉``, which matches the
  readable ``ht = 2`` case ``1 + ⌈ap / B+fan⌉``.
* Eqs. 25–26 (``Rnlp`` for full/left) divide by the distinct-key counts
  of the *forward* clustering; the backward clustering of ``E^{i,j}`` is
  keyed on ``t_j`` OIDs, so the key counts are ``e_j`` (full) and
  ``RefBy(0, j)`` (left) — symmetric to the printed Eqs. 27–28.
"""

from __future__ import annotations

import math

from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.costmodel.cardinality import partition_cardinality
from repro.costmodel.derived import DerivedQuantities, derived_for
from repro.costmodel.parameters import ApplicationProfile, SystemParameters
from repro.errors import CostModelError


class StorageModel:
    """Sizes and tree shapes of ASR partitions for one profile."""

    def __init__(
        self,
        profile: ApplicationProfile,
        system: SystemParameters | None = None,
    ) -> None:
        self.profile = profile
        self.system = system or SystemParameters()
        self.derived: DerivedQuantities = derived_for(profile)

    # ------------------------------------------------------------------
    # tuple and page geometry (Eqs. 13-16)
    # ------------------------------------------------------------------

    def ats(self, i: int, j: int) -> float:
        """Eq. 13: bytes per tuple of ``E^{i,j}``."""
        return self.system.oid_size * (j - i + 1)

    def atpp(self, i: int, j: int) -> float:
        """Eq. 14: tuples of ``E^{i,j}`` per page."""
        return self.system.page_size // self.ats(i, j)

    def count(self, extension: Extension, i: int, j: int) -> float:
        """``#E^{i,j}_X`` (section 4.2)."""
        return partition_cardinality(self.profile, extension, i, j, self.derived)

    def as_bytes(self, extension: Extension, i: int, j: int) -> float:
        """Eq. 15: partition size in bytes."""
        return self.count(extension, i, j) * self.ats(i, j)

    def ap(self, extension: Extension, i: int, j: int) -> float:
        """Eq. 16: partition data pages."""
        return math.ceil(self.count(extension, i, j) / self.atpp(i, j))

    # ------------------------------------------------------------------
    # whole-relation aggregates
    # ------------------------------------------------------------------

    def relation_bytes(self, extension: Extension, dec: Decomposition) -> float:
        """Σ of partition byte sizes (the non-redundant representation)."""
        self._check_dec(dec)
        return sum(self.as_bytes(extension, a, b) for a, b in dec.partitions)

    def _check_dec(self, dec: Decomposition) -> None:
        if dec.m != self.profile.n:
            raise CostModelError(
                f"decomposition {dec} does not cover type indices 0..{self.profile.n}"
            )

    # ------------------------------------------------------------------
    # B+ tree shape (Eqs. 19-20)
    # ------------------------------------------------------------------

    def ht(self, extension: Extension, i: int, j: int) -> float:
        """Eq. 19: tree height above the leaves."""
        pages = self.ap(extension, i, j)
        if pages <= 1:
            return 0.0 if pages < 1 else 1.0
        return math.ceil(math.log(pages) / math.log(self.system.btree_fanout))

    def pg(self, extension: Extension, i: int, j: int) -> float:
        """Eq. 20 (generalized): non-leaf pages of the tree."""
        pages = self.ap(extension, i, j)
        height = int(self.ht(extension, i, j))
        fanout = self.system.btree_fanout
        total = 0.0
        for level in range(1, height + 1):
            total += math.ceil(pages / fanout**level)
        return total

    # ------------------------------------------------------------------
    # leaf pages per key (Eqs. 21-28)
    # ------------------------------------------------------------------

    def _forward_keys(self, extension: Extension, i: int) -> float:
        """Distinct first-column keys of ``E^{i,j}_X`` (forward clustering).

        Partitions always have ``i < n``, so ``d_i`` and ``Ref(i, n)`` are
        well defined.
        """
        q = self.derived
        if extension in (Extension.FULL, Extension.RIGHT):
            return self.profile.d_(i)  # Eqs. 21-22
        if extension is Extension.CANONICAL:  # Eq. 23
            return self._ref_to_n(i) * q.p_refby(0, i)
        # Eq. 24 (left): objects of t_i reached from t_0.
        return self._refby0(i)

    def _backward_keys(self, extension: Extension, j: int) -> float:
        """Distinct last-column keys of ``E^{i,j}_X`` (backward clustering)."""
        q = self.derived
        if extension is Extension.FULL:  # Eq. 25 corrected
            return self.profile.e_(j)
        if extension is Extension.LEFT:  # Eq. 26 corrected
            return self._refby0(j)
        if extension is Extension.CANONICAL:  # Eq. 27
            return self._ref_to_n(j) * q.p_refby(0, j)
        # Eq. 28 (right): objects of t_j reaching t_n; for j = n these are
        # the referenced t_n objects themselves.
        return self._ref_to_n(j) if j < self.profile.n else self.profile.e_(j)

    def _ref_to_n(self, i: int) -> float:
        """``Ref(i, n)`` extended with ``Ref(n, n) = c_n``."""
        n = self.profile.n
        return self.derived.ref(i, n) if i < n else self.profile.c_(n)

    def _refby0(self, i: int) -> float:
        if i == 0:
            return self.profile.d_(0)
        return self.derived.refby(0, i)

    def nlp(self, extension: Extension, i: int, j: int) -> float:
        """Eqs. 21-24: leaf pages per key of the forward clustering."""
        return self._leaf_pages_per_key(
            self.as_bytes(extension, i, j), self._forward_keys(extension, i)
        )

    def rnlp(self, extension: Extension, i: int, j: int) -> float:
        """Eqs. 25-28: leaf pages per key of the backward clustering."""
        return self._leaf_pages_per_key(
            self.as_bytes(extension, i, j), self._backward_keys(extension, j)
        )

    def _leaf_pages_per_key(self, byte_size: float, keys: float) -> float:
        if byte_size <= 0:
            return 0.0
        if keys < 1:
            keys = 1.0
        return math.ceil(byte_size / (self.system.page_size * keys))

    # ------------------------------------------------------------------
    # object pages (Eqs. 17-18)
    # ------------------------------------------------------------------

    def opp(self, i: int) -> float:
        """Eq. 17: objects of ``t_i`` per page (clamped to ≥ 1)."""
        return max(1.0, self.system.page_size // self.profile.size_(i))

    def op(self, i: int) -> float:
        """Eq. 18: pages storing the ``t_i`` extent."""
        return math.ceil(self.profile.c_(i) / self.opp(i))
