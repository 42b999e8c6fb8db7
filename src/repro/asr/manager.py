"""ASRManager — keeps a family of ASRs consistent with an object base.

The manager subscribes to the object base's change events and, for every
registered access support relation, computes the dirty region and applies
the neighbourhood delta (:mod:`repro.asr.maintenance`).  It is the
run-time embodiment of section 6: after any sequence of updates, each
managed ASR equals what a from-scratch rebuild would produce (verified by
:meth:`check_consistency` and the property-based test suite).

Maintenance can be charged to an :class:`~repro.context.ExecutionContext`
(or a bare buffer scope) to *measure* update costs on the storage
simulator, mirroring the analytical update-cost model of
:mod:`repro.costmodel.updatecost`.

Two maintenance regimes exist:

* **eager** (the default): every primitive event is analyzed and its
  neighbourhood delta applied immediately — one tree round-trip per
  event per ASR, the regime section 6 prices;
* **batched** (:meth:`batch` / :meth:`flush`): events only *accumulate*
  their dirty regions in a per-ASR queue; the regions are coalesced
  (set-union of anchors and dead OIDs) and, at the flush boundary, one
  ``neighbourhood_delta`` per ASR is computed against the final object
  graph and applied under a single buffer scope.  Overlapping events
  therefore charge their shared pages once, and intermediate states
  that a later event undoes never touch the trees at all.

A manager holds its event subscription until :meth:`close` is called
(or its ``with`` block exits); a closed manager no longer maintains its
ASRs.  When the manager is constructed with an ``ExecutionContext``,
pending batches are flushed automatically when that context closes.

**Concurrency** (see :mod:`repro.concurrency` and DESIGN §9): the
manager carries a readers-writer lock.  Query-side readers — the
planners and the select executor — hold the read side while probing
registered ASRs and reading their trees, so any number of queries
proceed in parallel; event maintenance, flushes, recovery, registration
changes, and the quarantine state transitions take the write side and
are exclusive.  Callers mutating the *object base* from several threads
should wrap each update transaction in :meth:`exclusive` so the graph
mutation and its maintenance are one atomic unit with respect to
concurrent readers.  ``batch()`` blocks themselves are per-thread
(open/close a batch from one thread at a time).

**Crash consistency** (see :mod:`repro.asr.journal`): every delta —
eager or batched — is applied under a write-ahead intent journal and
drives the ASR through ``CONSISTENT → APPLYING → CONSISTENT``.  A
:class:`~repro.errors.SimulatedCrash` or
:class:`~repro.errors.InjectedFault` mid-delta quarantines the ASR
instead of leaving it silently torn; :meth:`recover` replays the journal
by recomputing the neighbourhood against the current object graph (with
bounded retry/backoff on transient faults, and a full rebuild as last
resort), and :meth:`verify` is the ``repro doctor`` backend.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.asr.asr import AccessSupportRelation
from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.asr.journal import ASRState, IntentJournal
from repro.asr.maintenance import (
    EMPTY_REGION,
    DirtyRegion,
    analyze_event,
    merge_regions,
    neighbourhood_delta,
)
from repro.concurrency import RWLock
from repro.context import ExecutionContext
from repro.costmodel.measured import MeasuredCosts
from repro.errors import (
    InjectedFault,
    ObjectBaseError,
    RecoveryError,
    SimulatedCrash,
)
from repro.faults import reach
from repro.gom.database import ObjectBase
from repro.gom.events import Event
from repro.gom.paths import PathExpression
from repro.resilience.policy import RecoveryPolicy


class ASRManager:
    """Owns access support relations over one object base.

    Parameters
    ----------
    db:
        The object base whose change events drive maintenance.
    context:
        Optional :class:`~repro.context.ExecutionContext` charged for
        tree maintenance.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` whose named crash
        points the flush/recovery pipeline consults; defaults to the
        context's injector when a context is given.
    auto_recover:
        When True (default), a *transient* :class:`InjectedFault` during
        a flush triggers an immediate in-place :meth:`recover` of the
        affected ASR; when that also fails the ASR stays quarantined and
        the flush continues degraded.  A :class:`SimulatedCrash` always
        propagates — a dead process cannot self-heal.
    metrics:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`.
        Defaults to the context's registry when a context is given.
        Maintenance publishes ``asr.maintenance.rows`` (extension rows
        changed per applied delta), quarantine transitions publish
        ``asr.quarantine.entered`` / ``asr.quarantine.exited`` (labelled
        by extension), and every operation counter the manager bumps in
        the context trace is mirrored into the ``ops`` counter family.
    costs:
        The object base's one price list, a
        :class:`~repro.costmodel.measured.MeasuredCosts`; ``None`` means
        ``MeasuredCosts(db)`` (default object sizes).  Every
        :class:`~repro.query.planner.Planner` over this manager ranks by
        it (``predict_query`` is all a planner asks), and an
        :class:`~repro.asr.adaptive.AdvisorLoop` prices and re-measures
        through it.  Profiles are measured on the first
        price asked for a path, not here.
    """

    def __init__(
        self,
        db: ObjectBase,
        context: ExecutionContext | None = None,
        fault_injector=None,
        auto_recover: bool = True,
        metrics=None,
        policy: RecoveryPolicy | None = None,
        costs: MeasuredCosts | None = None,
    ) -> None:
        self.db = db
        self.costs = costs if costs is not None else MeasuredCosts(db)
        #: The retry/backoff contract every recovery path follows —
        #: shared verbatim with ``repro doctor --repair`` and the
        #: :class:`~repro.resilience.healer.HealerLoop`.
        self.policy = policy or RecoveryPolicy()
        #: Seeded jitter source for the policy's backoff ladder.
        self._backoff_rng = random.Random(0)
        #: ``fn(asr, "quarantined"|"consistent")`` callbacks fired on
        #: every quarantine transition (see :meth:`add_state_listener`).
        self._state_listeners: list[Callable] = []
        self.asrs: list[AccessSupportRelation] = []
        self._suspended = 0
        self.context = context
        self.fault_injector = fault_injector
        self.auto_recover = auto_recover
        self.metrics = metrics
        self._batch_depth = 0
        #: Coalesced pending dirty regions, one per batched ASR
        #: (keyed by identity — ASRs are not hashable by value).
        self._pending: dict[int, tuple[AccessSupportRelation, DirtyRegion]] = {}
        #: Outstanding intent journals, one per APPLYING/QUARANTINED ASR.
        self._journals: dict[int, tuple[AccessSupportRelation, IntentJournal]] = {}
        #: Dirty regions accumulated for replacements building unlocked
        #: in :meth:`rematerialize`, keyed by the old ASR's identity.
        self._catchup: dict[int, DirtyRegion] = {}
        self._epoch = 0
        self._closed = False
        #: Readers-writer lock: queries share, maintenance is exclusive.
        #: Writer-preferring, so a saturating read stream cannot starve
        #: flush/recover; writer queueing delays are published as the
        #: ``lock.writer_wait_ms`` histogram of the registry in force.
        self.lock = RWLock(metrics=self._metrics())
        db.subscribe(self._on_event)
        if context is not None:
            context.add_exit_hook(self.flush)

    @property
    def epoch(self) -> int:
        """Monotone version number of the queryable ASR configuration.

        Bumped by every journaled maintenance batch, real quarantine
        transition, recovery rebuild, bulk-load rebuild, and ASR
        (de)registration — anything that can change which plan the
        planner would pick or which partitions a chosen plan may touch.
        Compiled-plan caches key on this value so a bump invalidates
        them wholesale.  Read it under the manager's read lock to pair
        it consistently with a planning decision.
        """
        return self._epoch

    def add_state_listener(self, listener: Callable) -> None:
        """Subscribe to quarantine transitions of the managed ASRs.

        ``listener(asr, state)`` is called with ``"quarantined"`` on
        every quarantine entry and ``"consistent"`` on every exit,
        *while the write lock is held* — listeners must be fast, must
        not sleep, and must not take the manager's lock (the breaker
        board qualifies: it uses its own).
        """
        self._state_listeners.append(listener)

    def _notify_state(self, asr, state: str) -> None:
        for listener in self._state_listeners:
            try:
                listener(asr, state)
            except Exception:  # pragma: no cover - listeners must not
                pass  # break maintenance; they are observability glue

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def create(
        self,
        path: PathExpression,
        extension: Extension = Extension.FULL,
        decomposition: Decomposition | None = None,
    ) -> AccessSupportRelation:
        """Build and register an ASR for ``path`` from the current state."""
        asr = AccessSupportRelation.build(self.db, path, extension, decomposition)
        with self.lock.write():
            self.asrs.append(asr)
            self._epoch += 1
        return asr

    def register(self, asr: AccessSupportRelation) -> None:
        """Adopt an externally built ASR (assumed consistent right now)."""
        with self.lock.write():
            self.asrs.append(asr)
            self._epoch += 1

    def drop(self, asr: AccessSupportRelation) -> None:
        with self.lock.write():
            try:
                self.asrs.remove(asr)
            except ValueError:
                raise ObjectBaseError(
                    "ASR is not registered with this manager"
                ) from None
            self._pending.pop(id(asr), None)
            self._journals.pop(id(asr), None)
            self._epoch += 1

    def replace(
        self, old: AccessSupportRelation, new: AccessSupportRelation
    ) -> None:
        """Atomically swap ``old`` for ``new`` in one exclusive section.

        The re-materialization primitive: unlike a ``drop`` followed by a
        ``register`` (two separate exclusive sections), no reader can
        ever observe the gap where neither ASR is registered, and the
        configuration version moves by exactly **one** epoch bump — so
        compiled-plan caches invalidate once, not twice.  ``old``'s
        pending regions and outstanding journal die with it; ``new`` is
        adopted as consistent.  Raises :class:`ObjectBaseError` (and
        changes nothing) when ``old`` is not registered, which makes the
        caller's rollback trivial: build failures before this call leave
        ``old`` serving untouched.
        """
        with self.lock.write():
            try:
                index = self.asrs.index(old)
            except ValueError:
                raise ObjectBaseError(
                    "ASR is not registered with this manager"
                ) from None
            self.asrs[index] = new
            self._pending.pop(id(old), None)
            self._journals.pop(id(old), None)
            self._epoch += 1

    def rematerialize(
        self,
        asr: AccessSupportRelation,
        extension: Extension,
        decomposition: Decomposition,
    ) -> AccessSupportRelation:
        """Re-build ``asr`` under a new design online; returns the replacement.

        The replacement bulk-builds *without* the lock, so readers keep
        serving from ``asr``.  Every update landing meanwhile widens a
        catch-up region, computed by :meth:`_on_event` for ``asr`` under
        the write lock the mutator holds — also while :meth:`suspended`.
        One exclusive section then applies the catch-up delta (the
        recompute derives the correct post-state, as in :meth:`recover`)
        and swaps via :meth:`replace`: exactly one epoch bump.  ``asr``
        is never dropped before that, so any failure — the crash points
        ``asr.retune.build`` / ``asr.retune.register`` included — leaves
        it registered, consistent and serving; :meth:`replace` raises
        :class:`ObjectBaseError` when ``asr`` is not registered.
        """
        key = id(asr)
        with self.lock.write():
            if key in self._catchup:
                # Two builds would share (and reset) one catch-up region.
                raise ObjectBaseError("ASR is already being re-materialized")
            self._catchup[key] = EMPTY_REGION
        injector = self._injector()
        try:
            reach(injector, "asr.retune.build")
            replacement = AccessSupportRelation.build(
                self.db, asr.path, extension, decomposition
            )
            # Warm the by-cell index outside the lock, so the first
            # update after the swap does not pay for it under the lock.
            replacement.extension_relation.index_cells()
            with self.lock.write():
                region = self._catchup.pop(key)
                if region:
                    added, removed = neighbourhood_delta(
                        self.db,
                        asr.path,
                        replacement.extension,
                        replacement.extension_relation,
                        region,
                    )
                    replacement.apply_delta(added, removed, None)
                reach(injector, "asr.retune.register")
                self.replace(asr, replacement)
        finally:
            with self.lock.write():
                self._catchup.pop(key, None)
        return replacement

    def find(
        self, path: PathExpression, extension: Extension | None = None
    ) -> list[AccessSupportRelation]:
        """Registered ASRs over ``path`` (optionally of one extension)."""
        return [
            asr
            for asr in self.asrs
            if asr.path == path and (extension is None or asr.extension is extension)
        ]

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush pending work and stop maintaining: unsubscribe from the db.

        Idempotent, and safe while a batch is open: the defined order is
        *flush-then-unsubscribe*, so pending work queued inside a still
        open ``batch()`` block is applied (not dropped) and the batch's
        own exit then flushes nothing.  The manager is marked closed and
        unsubscribed even when the flush itself fails (e.g. an injected
        crash) — the quarantine/journal state survives for
        :meth:`recover`, but no further events are observed.
        """
        if self._closed:
            return
        with self.lock.write():
            try:
                self.flush()
            finally:
                self._closed = True
                try:
                    self.db.unsubscribe(self._on_event)
                except ValueError:  # pragma: no cover - subscription already gone
                    pass

    def __enter__(self) -> "ASRManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        return None

    # ------------------------------------------------------------------
    # event handling
    # ------------------------------------------------------------------

    def _injector(self):
        """The fault policy in force (explicit wins over the context's)."""
        if self.fault_injector is not None:
            return self.fault_injector
        if self.context is not None:
            return self.context.fault_injector
        return None

    def _metrics(self):
        """The registry in force (explicit wins over the context's)."""
        if self.metrics is not None:
            return self.metrics
        if self.context is not None:
            return self.context.metrics
        return None

    def _count(self, name: str, n: int = 1) -> None:
        """Bump an operation counter in the context trace, if any."""
        if self.context is not None:
            self.context.count(name, n)
            return
        registry = self._metrics()
        if registry is not None:
            registry.inc("ops", n, op=name)

    def _metric_inc(self, name: str, n: float = 1, **labels: str) -> None:
        """Publish one counter bump into the registry in force, if any."""
        registry = self._metrics()
        if registry is not None:
            registry.inc(name, n, **labels)

    def _mark_quarantined(self, asr) -> None:
        """Transition ``asr`` to QUARANTINED, counting the entry once."""
        if asr.state is not ASRState.QUARANTINED:
            self._metric_inc(
                "asr.quarantine.entered",
                extension=getattr(asr.extension, "value", str(asr.extension)),
            )
            asr.state = ASRState.QUARANTINED
            self._epoch += 1
            self._notify_state(asr, "quarantined")
            return
        asr.state = ASRState.QUARANTINED

    def _mark_consistent(self, asr) -> None:
        """Transition ``asr`` to CONSISTENT, counting a quarantine exit."""
        if asr.state is ASRState.QUARANTINED:
            self._metric_inc(
                "asr.quarantine.exited",
                extension=getattr(asr.extension, "value", str(asr.extension)),
            )
            asr.state = ASRState.CONSISTENT
            self._epoch += 1
            self._notify_state(asr, "consistent")
            return
        asr.state = ASRState.CONSISTENT

    def _on_event(self, event: Event) -> None:
        if self._closed or (self._suspended and not self._catchup):
            return
        with self.lock.write():
            # The region must be computed *now*: it reads event-time
            # graph state, e.g. the members of a collection being
            # detached.
            items = []
            for asr in self.asrs:
                region = analyze_event(self.db, asr.path, event)
                if not region:
                    continue
                key = id(asr)
                if key in self._catchup:
                    self._catchup[key] = merge_regions(self._catchup[key], region)
                items.append((asr, region))
            if not items or self._suspended:
                return
            if self._batch_depth:
                self._enqueue(items)
                return
            self._journaled_run(items, self.context, "asr.apply")

    def _enqueue(self, items) -> None:
        """Accumulate ``(asr, region)`` items without touching trees.

        The expensive neighbourhood recomputation and all tree mutations
        are deferred to :meth:`flush`.
        """
        for asr, region in items:
            key = id(asr)
            if key in self._pending:
                _, pending = self._pending[key]
                self._pending[key] = (asr, merge_regions(pending, region))
            else:
                self._pending[key] = (asr, region)

    @contextmanager
    def batch(self) -> Iterator["ASRManager"]:
        """Defer maintenance inside the block; flush once on exit.

        Unlike :meth:`suspended`, this does **not** fall back to full
        rebuilds: the coalesced dirty regions are maintained exactly,
        just with one tree round-trip per ASR instead of one per event::

            with manager.batch():
                db.set_insert(parts, bolt)
                db.set_insert(parts, nut)
            # <- one coalesced neighbourhood delta applied here

        Nesting is allowed; only the outermost exit flushes.

        An exception escaping the (outermost) block does **not** flush:
        applying tree deltas during unwind would race the very failure
        being propagated.  Instead each pending region is re-validated
        against the live graph — regions whose net delta is empty are
        discarded, the rest quarantine their ASR with the region
        journalled, to be healed by :meth:`recover`.
        """
        self._batch_depth += 1
        try:
            yield self
        except BaseException:
            self._batch_depth -= 1
            if not self._batch_depth:
                with self.lock.write():
                    self._abort_pending()
            raise
        else:
            self._batch_depth -= 1
            if not self._batch_depth:
                self.flush()

    @contextmanager
    def exclusive(self) -> Iterator["ASRManager"]:
        """Hold the write side across a multi-step update transaction.

        Concurrent writers mutating the object base should wrap each
        transaction (the graph mutations *and* the eager maintenance they
        trigger) in this block so readers never observe the graph and the
        ASRs mid-divergence::

            with manager.exclusive():
                db.set_insert(parts, bolt)
                db.set_attr(bolt, "weight", 7)

        Reentrant: the eager ``_on_event`` path re-acquires the same
        write side without deadlocking.
        """
        with self.lock.write():
            yield self

    @contextmanager
    def shared(self) -> Iterator["ASRManager"]:
        """Hold the read side — what the planner and executor do per query."""
        with self.lock.read():
            yield self

    def _abort_pending(self) -> None:
        """Discard-or-quarantine pending regions after an aborted batch."""
        pending, self._pending = self._pending, {}
        for asr, region in pending.values():
            if asr.state is not ASRState.CONSISTENT:
                self._absorb(asr, region)
                continue
            try:
                added, removed = neighbourhood_delta(
                    self.db, asr.path, asr.extension, asr.extension_relation, region
                )
                stale = bool(added or removed)
            except Exception:  # conservative: assume the region matters
                stale = True
            if stale:
                self._quarantine(asr, region)
                self._count("asr.batch.aborted")

    def flush(self, context=None) -> int:
        """Apply all pending coalesced deltas under a single buffer scope.

        Returns the number of extension rows that changed (added plus
        removed, over all ASRs).  Page accesses are charged to
        ``context`` when given, else to the manager's context.  No-op
        when nothing is pending.
        """
        with self.lock.write():
            if not self._pending:
                return 0
            pending, self._pending = self._pending, {}
            target = context if context is not None else self.context
            if isinstance(target, ExecutionContext):
                with target.operation("asr.flush") as scope:
                    return self._journaled_run(pending.values(), scope, "asr.flush")
            # A raw buffer scope (or None) is already a single scope.
            return self._journaled_run(pending.values(), target, "asr.flush")

    # ------------------------------------------------------------------
    # crash-consistent delta application
    # ------------------------------------------------------------------

    def _journaled_run(self, items, scope, stage: str) -> int:
        """Apply ``(asr, region)`` items under write-ahead intent journals.

        Phase 1 journals every intent before any tree is touched (so a
        crash can never lose a region silently); phase 2 applies the
        deltas, committing each journal on success.  Crash points
        ``{stage}.journal`` / ``{stage}.mid-delta`` / ``{stage}.post-delta``
        are consulted along the way.
        """
        injector = self._injector()
        self._epoch += 1
        journaled: list[tuple[AccessSupportRelation, IntentJournal]] = []
        for asr, region in items:
            if asr.state is not ASRState.CONSISTENT:
                # Already quarantined: widen its journal for recover().
                self._absorb(asr, region)
                continue
            added, removed = neighbourhood_delta(
                self.db, asr.path, asr.extension, asr.extension_relation, region
            )
            if not added and not removed:
                continue
            journal = IntentJournal(
                region, self._epoch, frozenset(added), frozenset(removed)
            )
            self._journals[id(asr)] = (asr, journal)
            asr.state = ASRState.APPLYING
            journaled.append((asr, journal))
        if not journaled:
            return 0
        try:
            reach(injector, f"{stage}.journal")
            return self._apply_journaled(journaled, scope, injector, stage)
        except SimulatedCrash:
            # The "process" died mid-flush: every intent not yet
            # committed stays journalled and the ASR quarantined.
            for asr, _journal in journaled:
                if asr.state is ASRState.APPLYING:
                    self._mark_quarantined(asr)
            raise

    def _apply_journaled(self, journaled, scope, injector, stage: str) -> int:
        changed = 0
        for asr, journal in journaled:
            try:
                asr.apply_delta((), journal.removed, scope)
                reach(injector, f"{stage}.mid-delta")
                asr.apply_delta(journal.added, (), scope)
                reach(injector, f"{stage}.post-delta")
            except SimulatedCrash:
                raise  # quarantined by _journaled_run
            except InjectedFault:
                self._mark_quarantined(asr)
                self._count(f"{stage}.fault")
                if self.auto_recover:
                    try:
                        self._recover_one(asr, scope, injector, self.policy.max_retries)
                    except (InjectedFault, RecoveryError):
                        self._count(f"{stage}.quarantined")
                    else:
                        changed += len(journal.added) + len(journal.removed)
                        self._note_rows(asr, journal, stage)
                else:
                    self._count(f"{stage}.quarantined")
            else:
                self._journals.pop(id(asr), None)
                self._mark_consistent(asr)
                changed += len(journal.added) + len(journal.removed)
                self._note_rows(asr, journal, stage)
        return changed

    def _note_rows(self, asr, journal, stage: str) -> None:
        """Publish one applied delta's row count as a maintenance metric."""
        self._metric_inc(
            "asr.maintenance.rows",
            len(journal.added) + len(journal.removed),
            extension=getattr(asr.extension, "value", str(asr.extension)),
            stage=stage,
        )

    def _quarantine(self, asr: AccessSupportRelation, region: DirtyRegion) -> None:
        """Quarantine ``asr`` with ``region`` journalled for recovery."""
        key = id(asr)
        if key in self._journals:
            _, journal = self._journals[key]
            self._journals[key] = (asr, journal.absorb(region))
        else:
            self._journals[key] = (asr, IntentJournal(region, self._epoch))
        self._mark_quarantined(asr)

    def _absorb(self, asr: AccessSupportRelation, region: DirtyRegion) -> None:
        """Merge a quarantined ASR's new dirty region into its journal."""
        self._quarantine(asr, region)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @property
    def quarantined(self) -> list[AccessSupportRelation]:
        """The managed ASRs currently awaiting recovery."""
        return [asr for asr in self.asrs if asr.state is not ASRState.CONSISTENT]

    def journal_for(self, asr: AccessSupportRelation) -> IntentJournal | None:
        """The outstanding intent journal of ``asr``, if any."""
        entry = self._journals.get(id(asr))
        return entry[1] if entry is not None else None

    def recover(
        self,
        asr: AccessSupportRelation | None = None,
        context=None,
        max_retries: int | None = None,
    ) -> int:
        """Heal quarantined ASRs; returns how many were recovered.

        For each quarantined ASR the journal is replayed by *recomputing*
        the neighbourhood delta of the journalled dirty region against
        the current object graph and healing the logical extension
        relation, then reloading every partition wholesale from it — safe
        for arbitrarily torn trees, and idempotent because the recompute
        derives the correct post-state instead of redoing half-applied
        operations.  Transient :class:`InjectedFault`\\ s are retried up
        to ``max_retries`` times (default: the manager's
        :class:`~repro.resilience.policy.RecoveryPolicy`), with the
        policy's exponential backoff + seeded jitter between attempts.
        When retries are exhausted a full
        :meth:`~AccessSupportRelation.rebuild` is the last resort
        (unless ``policy.rebuild_fallback`` is off); if even that
        faults, :class:`RecoveryError` is raised and the ASR stays
        quarantined.

        ``asr`` restricts recovery to one relation (it need not be
        quarantined — recovering a consistent ASR is a no-op).

        **Lock discipline**: each retry *attempt* runs under the write
        lock, but the backoff sleeps between attempts happen with the
        lock released — readers keep making progress through the retry
        ladder (planners route around the still-quarantined ASR), and a
        saturating read stream cannot be stalled for the whole
        exponential backoff total.  When recovery runs nested inside a
        frame that already holds the write side (the auto-recover path
        inside a flush, or ``verify(repair=True)``), the reentrant lock
        stays held across the sleeps by the *outer* frames; that ladder
        is capped at ``max_retries`` sleeps of ``policy.delay(k)``
        seconds.
        """
        with self.lock.write():
            targets = (
                [asr]
                if asr is not None
                else [a for a in self.asrs if a.state is not ASRState.CONSISTENT]
            )
            targets = [a for a in targets if a.state is not ASRState.CONSISTENT]
        if not targets:
            return 0
        retries = self.policy.max_retries if max_retries is None else max_retries
        injector = self._injector()
        target = context if context is not None else self.context
        recovered = 0
        if isinstance(target, ExecutionContext):
            with target.operation("asr.recover") as scope:
                for one in targets:
                    self._recover_one(one, scope, injector, retries)
                    recovered += 1
        else:
            for one in targets:
                self._recover_one(one, target, injector, retries)
                recovered += 1
        return recovered

    def _recover_one(self, asr, scope, injector, max_retries: int) -> None:
        # Duck-typed registrants (e.g. the nested-index baseline) have no
        # partitions to reload selectively; they recover via rebuild().
        partitions = getattr(asr, "partitions", None)
        last_fault: InjectedFault | None = None
        for attempt in range(max(1, max_retries)):
            self._count("asr.recover.attempt")
            delay = self.policy.delay(attempt, self._backoff_rng)
            if delay:
                # Backoff with the write lock released (unless an outer
                # frame holds it reentrantly — see :meth:`recover`): the
                # ASR stays quarantined while we sleep, so concurrent
                # readers proceed and planners route around it.
                time.sleep(delay)
            with self.lock.write():
                if asr.state is ASRState.CONSISTENT:
                    # Another thread healed it during our backoff.
                    self._count("asr.recover.ok")
                    return
                # Re-fetch per attempt: updates absorbed while the lock
                # was released widen the journal we must replay.
                journal = self.journal_for(asr)
                try:
                    reach(injector, "asr.recover.replay")
                    if journal is not None and partitions is not None:
                        added, removed = neighbourhood_delta(
                            self.db,
                            asr.path,
                            asr.extension,
                            asr.extension_relation,
                            journal.region,
                        )
                        # Heal the logical relation only; the (possibly
                        # torn) trees are replaced wholesale below.
                        for row in removed:
                            asr.extension_relation.discard(row)
                        for row in added:
                            asr.extension_relation.add(row)
                    reach(injector, "asr.recover.reload")
                    if partitions is None:
                        asr.rebuild(self.db)
                    else:
                        rows = asr.extension_relation.rows
                        for partition in partitions:
                            partition.load_from_extension(rows)
                except SimulatedCrash:
                    self._mark_quarantined(asr)
                    raise
                except InjectedFault as fault:
                    last_fault = fault
                    self._mark_quarantined(asr)
                    continue
                else:
                    self._journals.pop(id(asr), None)
                    self._mark_consistent(asr)
                    self._count("asr.recover.ok")
                    return
        # Retries exhausted: a from-scratch rebuild is the last resort.
        if not self.policy.rebuild_fallback:
            raise RecoveryError(
                f"recovery of {asr.path} [{asr.extension.value}] failed after "
                f"{max_retries} replay attempt(s); rebuild fallback disabled "
                "by policy"
            ) from last_fault
        with self.lock.write():
            was_quarantined = asr.state is ASRState.QUARANTINED
            try:
                asr.rebuild(self.db)
            except (InjectedFault, SimulatedCrash) as err:
                self._mark_quarantined(asr)
                raise RecoveryError(
                    f"recovery of {asr.path} [{asr.extension.value}] failed "
                    f"after {max_retries} replay attempt(s) and a rebuild "
                    "attempt"
                ) from err
            self._epoch += 1
            if was_quarantined:
                # rebuild() reset the state itself; count the exit here.
                self._metric_inc(
                    "asr.quarantine.exited",
                    extension=getattr(asr.extension, "value", str(asr.extension)),
                )
                self._notify_state(asr, "consistent")
            self._journals.pop(id(asr), None)
            self._count("asr.recover.rebuilt")
            if last_fault is not None:
                self._count("asr.recover.retries-exhausted")

    def verify(self, repair: bool = False) -> dict:
        """Inspect (and optionally repair) every managed ASR.

        The backend of ``repro doctor``: returns a JSON-able report with
        one entry per ASR (path, extension, state, outstanding journal)
        plus headline counts.  With ``repair=True``, quarantined ASRs are
        recovered in place and the report records the outcome per ASR.
        """
        guard = self.lock.write() if repair else self.lock.read()
        with guard:
            entries = []
            recovered = failed = 0
            for asr in self.asrs:
                entry: dict = {
                    "path": str(asr.path),
                    "extension": asr.extension.value,
                    "state": asr.state.value,
                }
                journal = self.journal_for(asr)
                if journal is not None:
                    entry["journal"] = journal.describe()
                if repair and asr.state is not ASRState.CONSISTENT:
                    try:
                        self._recover_one(
                            asr, None, self._injector(), self.policy.max_retries
                        )
                    except (RecoveryError, InjectedFault) as err:
                        entry["repair"] = f"failed: {err}"
                        failed += 1
                    else:
                        entry["repair"] = "recovered"
                        recovered += 1
                    entry["state"] = asr.state.value
                entries.append(entry)
            quarantined = sum(
                1 for asr in self.asrs if asr.state is not ASRState.CONSISTENT
            )
            return {
                "asrs": entries,
                "quarantined": quarantined,
                "recovered": recovered,
                "failed": failed,
                "ok": quarantined == 0,
            }

    @property
    def pending_regions(self) -> int:
        """How many ASRs have un-flushed dirty regions queued."""
        return len(self._pending)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Skip maintenance inside the block, then rebuild every ASR.

        Use around bulk loads where incremental upkeep would be wasteful::

            with manager.suspended():
                generator.populate(db)
        """
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1
            if not self._suspended:
                with self.lock.write():
                    self._epoch += 1
                    for asr in self.asrs:
                        asr.rebuild(self.db)
                        # A rebuild restores consistency unconditionally, so
                        # any outstanding journal is moot.
                        self._journals.pop(id(asr), None)

    # ------------------------------------------------------------------
    # verification / inspection
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert every managed ASR matches a from-scratch rebuild."""
        with self.lock.read():
            for asr in self.asrs:
                asr.consistency_check(self.db)

    def report(self) -> str:
        """A catalog-style summary of every managed ASR."""
        if not self.asrs:
            return "no access support relations registered"
        lines = [f"{len(self.asrs)} access support relation(s):"]
        for asr in self.asrs:
            lines.append(
                f"  {asr.path} [{asr.extension.value}, dec={asr.decomposition}]: "
                f"{asr.tuple_count} tuples, {asr.total_pages} data pages, "
                f"{asr.total_bytes} bytes"
            )
        return "\n".join(lines)
