"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A type definition or schema lookup is invalid.

    Raised for duplicate type names, unknown supertypes, attribute clashes
    under multiple inheritance, and references to undefined types.
    """


class TypingError(ReproError):
    """A value violates the strong-typing rules of GOM.

    GOM is strongly typed: every attribute, set element, and variable is
    constrained to a declared type, which acts as an *upper bound* — the
    actual instance may belong to a subtype (paper, section 2).
    """


class PathError(ReproError):
    """A path expression does not satisfy Definition 3.1 of the paper."""


class ObjectBaseError(ReproError):
    """An operation on the object base is invalid.

    Examples: dereferencing an unknown OID, deleting an object that is
    still referenced while integrity enforcement is on, or redefining a
    database variable with an incompatible type.
    """


class RelationError(ReproError):
    """A relational operation received incompatible operands."""


class DecompositionError(ReproError):
    """A decomposition violates Definition 3.8.

    Decompositions must start at column 0, end at column ``m``, be strictly
    increasing, and have overlapping borders between adjacent partitions.
    """


class StorageError(ReproError):
    """The page-level storage engine was used inconsistently."""


class InjectedFault(StorageError):
    """A *simulated, transient* I/O fault raised by fault injection.

    Raised by a :class:`~repro.faults.FaultInjector` from a page read or
    write (probabilistically, under a deterministic seed) or from a named
    fault point armed with :meth:`~repro.faults.FaultInjector.fault_at`.
    Transient by definition: retrying the operation may succeed, which is
    what the paced retries of :class:`~repro.resilience.healer.HealerLoop`
    exercise.
    """


class SimulatedCrash(ReproError):
    """A simulated process crash raised at a named crash point.

    Unlike :class:`InjectedFault` this is *not* retryable: it models the
    process dying mid-operation, so it deliberately does not derive from
    :class:`StorageError` and must never be swallowed by retry loops.
    Structures behind the ASR delta pipeline's APPLYING fence are left
    quarantined and recoverable; the test harness catches the
    crash where a real system would restart.
    """


class RecoveryError(ReproError):
    """Crash recovery of an access support relation failed.

    Raised when the one attempt of
    :meth:`~repro.asr.manager.ASRManager.recover` faults; the ASR stays
    quarantined, and retrying is the caller's business (the healer's).
    """


class ExitHookError(ReproError):
    """Several exit hooks of an :class:`~repro.context.ExecutionContext`
    failed while the context was closing.

    ``close()`` runs *every* registered hook even when one raises (a
    failing trace exporter must not prevent an ASR flush, and vice
    versa); a single failure is re-raised as itself, two or more are
    aggregated into this error with the originals in :attr:`errors`
    (the first also as ``__cause__``).
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__(
            f"{len(self.errors)} exit hook(s) failed while closing: "
            + "; ".join(f"{type(e).__name__}: {e}" for e in self.errors)
        )


class QueryError(ReproError):
    """A query is malformed or cannot be evaluated.

    Also raised when a query is issued against an access support relation
    extension that does not support it (Eq. 35 applicability rules) and no
    fallback evaluation was requested.
    """


class CostModelError(ReproError):
    """The analytical cost model received inconsistent parameters."""


class ParseError(QueryError):
    """The SQL-like surface syntax could not be parsed."""
