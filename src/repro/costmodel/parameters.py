"""Application and system parameters (Figure 3 of the paper).

An :class:`ApplicationProfile` describes one path expression's world:

====================  =======================================================
``n``                 length of the access path (implied by the vectors)
``c[i]``              total number of objects of type ``t_i`` (i = 0..n)
``d[i]``              objects of ``t_i`` whose ``A_{i+1}`` is defined
                      (i = 0..n-1; the paper's tables show "—" for ``d_n``)
``fan[i]``            average references emanating from ``A_{i+1}``
                      of a ``t_i`` object (i = 0..n-1)
``shar[i]``           average number of ``t_i`` objects referencing the same
                      ``t_{i+1}`` object; defaults to ``d_i·fan_i / c_{i+1}``
``size[i]``           average object size in bytes (i = 0..n)
====================  =======================================================

Derived quantities (also Figure 3):

* ``e[i] = d_{i-1}·fan_{i-1} / shar_{i-1}`` — objects of ``t_i`` referenced
  from ``t_{i-1}`` (clamped to ``c_i``; the closed forms assume ``e ≤ c``);
* ``ref[i] = d_i · fan_i`` — the number of ``A_{i+1}`` references.

The profile is an immutable value object (hashable) so that the derived
probabilistic quantities can be memoized per profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CostModelError
from repro.storage.pages import (
    DEFAULT_OID_SIZE,
    DEFAULT_PAGE_SIZE,
    DEFAULT_PP_SIZE,
)


@dataclass(frozen=True)
class SystemParameters:
    """Page geometry (Figure 3, "system-specific parameters")."""

    page_size: int = DEFAULT_PAGE_SIZE
    oid_size: int = DEFAULT_OID_SIZE
    pp_size: int = DEFAULT_PP_SIZE

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.oid_size <= 0 or self.pp_size <= 0:
            raise CostModelError("system parameters must be positive")

    @property
    def btree_fanout(self) -> int:
        """``B+fan = ⌊PageSize / (PPsize + OIDsize)⌋``."""
        return self.page_size // (self.pp_size + self.oid_size)


@dataclass(frozen=True)
class ApplicationProfile:
    """One application's characteristics along a path of length ``n``."""

    c: tuple[float, ...]
    d: tuple[float, ...]
    fan: tuple[float, ...]
    size: tuple[float, ...] = ()
    shar: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", tuple(float(x) for x in self.c))
        object.__setattr__(self, "d", tuple(float(x) for x in self.d))
        object.__setattr__(self, "fan", tuple(float(x) for x in self.fan))
        object.__setattr__(self, "size", tuple(float(x) for x in self.size))
        object.__setattr__(self, "shar", tuple(float(x) for x in self.shar))
        n = len(self.c) - 1
        if n < 1:
            raise CostModelError("a path profile needs at least two types")
        if len(self.d) != n or len(self.fan) != n:
            raise CostModelError(
                f"expected {n} d/fan entries for {n + 1} object counts, got "
                f"{len(self.d)} and {len(self.fan)}"
            )
        if self.size and len(self.size) != n + 1:
            raise CostModelError(f"expected {n + 1} size entries")
        if self.shar and len(self.shar) != n:
            raise CostModelError(f"expected {n} shar entries")
        for i, value in enumerate(self.c):
            if value <= 0:
                raise CostModelError(f"c[{i}] must be positive")
        for i, value in enumerate(self.d):
            if value < 0 or value > self.c[i]:
                raise CostModelError(f"d[{i}] must lie in [0, c[{i}]]")
        for i, value in enumerate(self.fan):
            if value < 0:
                raise CostModelError(f"fan[{i}] must be non-negative")
        for value in self.size:
            if value <= 0:
                raise CostModelError("object sizes must be positive")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """The path length."""
        return len(self.c) - 1

    def c_(self, i: int) -> float:
        self._check_type_index(i)
        return self.c[i]

    def d_(self, i: int) -> float:
        if not 0 <= i < self.n:
            raise CostModelError(f"d index {i} out of range 0..{self.n - 1}")
        return self.d[i]

    def fan_(self, i: int) -> float:
        if not 0 <= i < self.n:
            raise CostModelError(f"fan index {i} out of range 0..{self.n - 1}")
        return self.fan[i]

    def size_(self, i: int) -> float:
        self._check_type_index(i)
        if not self.size:
            raise CostModelError("this profile has no object sizes")
        return self.size[i]

    def _check_type_index(self, i: int) -> None:
        if not 0 <= i <= self.n:
            raise CostModelError(f"type index {i} out of range 0..{self.n}")

    # ------------------------------------------------------------------
    # derived parameters (Figure 3)
    # ------------------------------------------------------------------

    def shar_(self, i: int) -> float:
        """``shar_i``: given, or the uniform-distribution default.

        Figure 3's printed default ``shar_i = d_i·fan_i / c_{i+1}``
        combined with ``e_{i+1} = d_i·fan_i / shar_i`` degenerates to
        ``e_{i+1} = c_{i+1}`` — *every* object referenced — which
        contradicts the paper's own Figure 4 discussion ("there are few
        objects at the left side of the path", i.e. most ``t_{i+1}``
        objects are *not* referenced).  We therefore derive the default
        from the expected number of **distinct** targets hit when
        ``d_i·fan_i`` references fall uniformly on ``c_{i+1}`` objects::

            e_{i+1} = c_{i+1} · (1 − (1 − 1/c_{i+1})^{d_i·fan_i})
            shar_i  = d_i·fan_i / e_{i+1}        (always ≥ 1)

        Explicit ``shar`` values override this (and reproduce the printed
        formula if desired).
        """
        if not 0 <= i < self.n:
            raise CostModelError(f"shar index {i} out of range 0..{self.n - 1}")
        if self.shar:
            return self.shar[i]
        references = self.d[i] * self.fan[i]
        if references == 0:
            return 0.0
        targets = self.c[i + 1]
        distinct = targets * (1.0 - (1.0 - 1.0 / targets) ** references)
        return references / distinct

    def e_(self, i: int) -> float:
        """``e_i``: objects of ``t_i`` referenced from ``t_{i-1}`` (1 ≤ i ≤ n).

        Clamped to ``c_i`` — the derivation assumes references cannot hit
        more objects than exist.
        """
        if not 1 <= i <= self.n:
            raise CostModelError(f"e index {i} out of range 1..{self.n}")
        shar = self.shar_(i - 1)
        if shar == 0:
            return 0.0
        return min(self.d[i - 1] * self.fan[i - 1] / shar, self.c[i])

    def ref_(self, i: int) -> float:
        """``ref_i = d_i · fan_i``."""
        return self.d_(i) * self.fan_(i)

    # ------------------------------------------------------------------
    # convenience constructors / transforms
    # ------------------------------------------------------------------

    def with_d(self, d: tuple[float, ...]) -> "ApplicationProfile":
        """A copy with new defined-attribute counts (Figure 5/8 sweeps)."""
        return ApplicationProfile(self.c, tuple(d), self.fan, self.size, self.shar)

    def with_fan(self, fan: tuple[float, ...]) -> "ApplicationProfile":
        """A copy with new fan-outs (Figure 9 sweep)."""
        return ApplicationProfile(self.c, self.d, tuple(fan), self.size, self.shar)

    def with_size(self, size: tuple[float, ...]) -> "ApplicationProfile":
        """A copy with new object sizes (Figure 7/13 sweeps)."""
        return ApplicationProfile(self.c, self.d, self.fan, tuple(size), self.shar)
