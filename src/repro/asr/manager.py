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
  (set-union of anchors, dead OIDs and set-membership edges) and, at
  the flush boundary, one ``neighbourhood_delta`` per ASR is computed
  against the final object graph and applied under a single buffer
  scope.  Overlapping events
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
eager or batched — drives its ASR through ``CONSISTENT → APPLYING →
CONSISTENT``.  A :class:`~repro.errors.SimulatedCrash` or
:class:`~repro.errors.InjectedFault` mid-delta quarantines the ASR
instead of leaving it silently torn.  An ASR is a function of the
object base (Defs. 3.4-3.8), so there is one repair: :meth:`recover`
derives the extension again and reloads every partition, one attempt
per call.  A fault quarantines the ASR and the flush goes on; retrying
belongs to the callers (the :class:`~repro.resilience.healer.HealerLoop`,
an explicit :meth:`recover`, :meth:`verify` — the ``repro doctor``
backend).
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Callable, Iterator

from repro.asr.asr import AccessSupportRelation
from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension, build_extension
from repro.asr.journal import ASRState
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
from repro.telemetry.registry import MetricsRegistry


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
        metrics=None,
        costs: MeasuredCosts | None = None,
    ) -> None:
        self.db = db
        self.costs = costs if costs is not None else MeasuredCosts(db)
        #: ``fn(asr, "quarantined"|"consistent")`` callbacks fired on
        #: every quarantine transition (see :meth:`add_state_listener`).
        self._state_listeners: list[Callable] = []
        self.asrs: list[AccessSupportRelation] = []
        self.context = context
        self.fault_injector = fault_injector
        self.metrics = metrics
        self._batch_depth = 0
        #: Coalesced pending dirty regions, one per batched ASR
        #: (keyed by identity — ASRs are not hashable by value).
        self._pending: dict[int, tuple[AccessSupportRelation, DirtyRegion]] = {}
        #: Dirty regions accumulated for replacements building unlocked
        #: in :meth:`rematerialize`, keyed by the old ASR's identity.
        self._catchup: dict[int, DirtyRegion] = {}
        self._epoch = 0
        #: ``(extension, stage)`` -> its ``asr.maintenance.rows`` series.
        self._row_series: dict[tuple, tuple] = {}
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

        Bumped by every ASR (de)registration and ``replace``, and by
        every real quarantine transition (recovery included) — anything
        that can change which plan the planner would pick or which
        partitions a chosen plan may touch.  Maintenance does not bump
        it: a plan holds ASRs, partitions and prices, never rows, and
        the prices are a function of a profile measured once per
        :meth:`MeasuredCosts.invalidate
        <repro.costmodel.measured.MeasuredCosts.invalidate>`, so an
        applied delta changes no decision.  Compiled-plan caches key on
        this value so a bump invalidates them wholesale.  Read it under
        the manager's read lock to pair it consistently with a planning
        decision.
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

    def replace(
        self, old: AccessSupportRelation, new: AccessSupportRelation
    ) -> None:
        """Atomically swap ``old`` for ``new`` in one exclusive section.

        The re-materialization primitive: no reader can ever observe a
        gap where neither ASR is registered, and the configuration
        version moves by exactly **one** epoch bump — so compiled-plan
        caches invalidate once, not twice.  ``old``'s
        pending regions die with it; ``new`` is
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
        the write lock the mutator holds.
        One exclusive section then applies the catch-up delta (the
        recompute derives the correct post-state from the live graph)
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
            with self.lock.write():
                region = self._catchup.pop(key)
                if region:
                    added, removed = neighbourhood_delta(self.db, replacement, region)
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
        crash) — the quarantine survives for :meth:`recover`, but no
        further events are observed.
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
        if self._closed:
            return
        with self.lock.write():
            # The region must be computed *now*: it reads event-time
            # graph state, e.g. the members of a collection being
            # detached.  A quarantined ASR needs none (recovery derives
            # it again from the object base) unless a catch-up for
            # :meth:`rematerialize` is open.
            items = []
            for asr in self.asrs:
                key = id(asr)
                healthy = asr.state is ASRState.CONSISTENT
                if not healthy and key not in self._catchup:
                    continue
                region = analyze_event(self.db, asr.path, event)
                if not region:
                    continue
                if key in self._catchup:
                    self._catchup[key] = merge_regions(self._catchup[key], region)
                if healthy:
                    items.append((asr, region))
            if not items:
                return
            if self._batch_depth:
                self._enqueue(items)
                return
            self._apply_regions(items, self.context, "asr.apply")

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

        The coalesced dirty regions are maintained exactly, just with
        one tree round-trip per ASR instead of one per event::

            with manager.batch():
                db.set_insert(parts, bolt)
                db.set_insert(parts, nut)
            # <- one coalesced neighbourhood delta applied here

        Nesting is allowed; only the outermost exit flushes.

        An exception escaping the (outermost) block does **not** flush:
        applying tree deltas during unwind would race the very failure
        being propagated.  Instead each pending region is re-validated
        against the live graph — regions whose net delta is empty are
        discarded, the rest quarantine their ASR, to be healed by
        :meth:`recover`.
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

    def exclusive(self) -> AbstractContextManager[None]:
        """Hold the write side across a multi-step update transaction.

        Concurrent writers mutating the object base should wrap each
        transaction (the graph mutations *and* the eager maintenance they
        trigger) in this block so readers never observe the graph and the
        ASRs mid-divergence::

            with manager.exclusive():
                db.set_insert(parts, bolt)
                db.set_attr(bolt, "weight", 7)

        Reentrant: the eager ``_on_event`` path re-acquires the same
        write side without deadlocking.  The block binds nothing (``as``
        gets ``None``).
        """
        return self.lock.write()

    def shared(self) -> AbstractContextManager[None]:
        """Hold the read side — what the planner and executor do per query."""
        return self.lock.read()

    def _abort_pending(self) -> None:
        """Discard-or-quarantine pending regions after an aborted batch."""
        pending, self._pending = self._pending, {}
        for asr, region in pending.values():
            if asr.state is not ASRState.CONSISTENT:
                continue
            try:
                added, removed = neighbourhood_delta(self.db, asr, region)
                stale = bool(added or removed)
            except Exception:  # conservative: assume the region matters
                stale = True
            if stale:
                self._mark_quarantined(asr)
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
                    return self._apply_regions(pending.values(), scope, "asr.flush")
            # A raw buffer scope (or None) is already a single scope.
            return self._apply_regions(pending.values(), target, "asr.flush")

    # ------------------------------------------------------------------
    # crash-consistent delta application
    # ------------------------------------------------------------------

    def _apply_regions(self, items, scope, stage: str) -> int:
        """Apply ``(asr, region)`` items, fencing each ASR while it is torn.

        Phase 1 computes every delta and marks its ASR APPLYING before
        any tree is touched (so a crash can never leave one silently
        torn); phase 2 applies the deltas, returning each ASR to
        CONSISTENT on success.  Crash points ``{stage}.journal`` /
        ``{stage}.mid-delta`` / ``{stage}.post-delta`` are consulted
        along the way.
        """
        injector = self._injector()
        deltas = []
        for asr, region in items:
            if asr.state is not ASRState.CONSISTENT:
                continue  # quarantined: recovery derives it again
            added, removed = neighbourhood_delta(self.db, asr, region)
            if not added and not removed:
                continue
            asr.state = ASRState.APPLYING
            deltas.append((asr, added, removed))
        if not deltas:
            return 0
        try:
            reach(injector, f"{stage}.journal")
            return self._apply_deltas(deltas, scope, injector, stage)
        except SimulatedCrash:
            # The "process" died mid-flush: every ASR not yet back to
            # CONSISTENT is quarantined.
            for asr, _added, _removed in deltas:
                if asr.state is ASRState.APPLYING:
                    self._mark_quarantined(asr)
            raise

    def _apply_deltas(self, deltas, scope, injector, stage: str) -> int:
        changed = 0
        for asr, added, removed in deltas:
            try:
                asr.apply_delta((), removed, scope)
                reach(injector, f"{stage}.mid-delta")
                asr.apply_delta(added, (), scope)
                reach(injector, f"{stage}.post-delta")
            except SimulatedCrash:
                raise  # quarantined by _apply_regions
            except InjectedFault:
                # Quarantined until the healer or recover() derives it
                # again; the flush goes on with the other ASRs.
                self._mark_quarantined(asr)
                self._count(f"{stage}.fault")
                continue
            self._mark_consistent(asr)
            changed += len(added) + len(removed)
            self._note_rows(asr, len(added) + len(removed), stage)
        return changed

    def _note_rows(self, asr, rows: int, stage: str) -> None:
        """Publish one applied delta's row count as ``asr.maintenance.rows``.

        Counted into the context's tally through a series bound once per
        ``(extension, stage)``; an explicit ``metrics`` registry, which
        overrides the context's, gets it directly.  Called under the
        write lock, which is what keeps the tally's writes apart.
        """
        if self.metrics is not None:
            self.metrics.inc(
                "asr.maintenance.rows",
                rows,
                extension=getattr(asr.extension, "value", str(asr.extension)),
                stage=stage,
            )
        elif self.context is not None:
            key = (asr.extension, stage)
            series = self._row_series.get(key)
            if series is None:
                series = self._row_series[key] = MetricsRegistry.series(
                    "asr.maintenance.rows",
                    extension=getattr(asr.extension, "value", str(asr.extension)),
                    stage=stage,
                )
            self.context.count_series(series, rows)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @property
    def quarantined(self) -> list[AccessSupportRelation]:
        """The managed ASRs currently awaiting recovery."""
        return [asr for asr in self.asrs if asr.state is not ASRState.CONSISTENT]

    def recover(self, asr: AccessSupportRelation | None = None, context=None) -> int:
        """Heal quarantined ASRs, one attempt each; returns how many.

        An ASR is a function of the object base, so the one repair is to
        derive it again: the extension is recomputed from the live graph
        and every partition reloaded from it — safe for arbitrarily torn
        trees, and idempotent.  Each attempt runs under one write hold
        and reaches ``asr.recover.replay`` before the rows are derived
        and ``asr.recover.reload`` before the partitions reload.  An
        :class:`InjectedFault` raises :class:`RecoveryError` with the ASR
        still quarantined; a :class:`SimulatedCrash` propagates as is.
        Nothing here retries or sleeps: the
        :class:`~repro.resilience.healer.HealerLoop` paces the retries.

        ``asr`` restricts recovery to one relation (it need not be
        quarantined — recovering a consistent ASR is a no-op).
        """
        with self.lock.write():
            targets = [asr] if asr is not None else self.asrs
            targets = [a for a in targets if a.state is not ASRState.CONSISTENT]
            if not targets:
                return 0
            injector = self._injector()
            target = context if context is not None else self.context
            with (
                target.operation("asr.recover")
                if isinstance(target, ExecutionContext)
                else nullcontext()
            ):
                for one in targets:
                    self._recover_one(one, injector)
            return len(targets)

    def _recover_one(self, asr, injector) -> None:
        """One attempt: derive ``asr`` again from the object base."""
        self._count("asr.recover.attempt")
        try:
            reach(injector, "asr.recover.replay")
            relation = build_extension(self.db, asr.path, asr.extension)
            reach(injector, "asr.recover.reload")
            asr.reload(relation)
        except SimulatedCrash:
            self._mark_quarantined(asr)
            raise
        except InjectedFault as fault:
            self._mark_quarantined(asr)
            raise RecoveryError(
                f"recovery of {asr.path} [{asr.extension.value}] failed: {fault}"
            ) from fault
        self._mark_consistent(asr)
        self._count("asr.recover.ok")

    def verify(self, repair: bool = False) -> dict:
        """Inspect (and optionally repair) every managed ASR.

        The backend of ``repro doctor``: returns a JSON-able report with
        one entry per ASR (path, extension, state) plus headline counts.
        With ``repair=True``, each quarantined ASR gets one recovery
        attempt in place and the report records the outcome per ASR.
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
                if repair and asr.state is not ASRState.CONSISTENT:
                    try:
                        self._recover_one(asr, self._injector())
                    except RecoveryError as err:
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

    # ------------------------------------------------------------------
    # verification / inspection
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Assert every managed ASR matches a from-scratch rebuild."""
        with self.lock.read():
            for asr in self.asrs:
                asr.consistency_check(self.db)
