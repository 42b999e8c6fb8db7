"""Self-adjusting physical design (the paper's stated future work).

Section 7: "the cost model is intended to be integrated into our
object-oriented DBMS in order to verify a given physical database
design, or even to automate the task of physical database design.  Thus,
for a recorded database usage pattern the system could
(semi-)automatically adjust the physical database design."

This module implements that loop:

1. :class:`WorkloadRecorder` counts the executed operations — forward and
   backward queries by range, ``ins_i``-style updates — either via
   explicit ``record_*`` calls or by observing an
   :class:`~repro.query.evaluator.QueryEvaluator` and the object base's
   change events;
2. :meth:`WorkloadRecorder.to_mix` turns the log into the cost model's
   ``(OperationMix, P_up)``;
3. :class:`AdaptiveDesigner` re-measures the live profile through its
   :class:`~repro.costmodel.measured.MeasuredCosts` (the manager's
   ``costs``, which its planners — and in a serving world the drift
   monitor — price from, so a sweep refreshes their profile too), runs the
   :class:`~repro.costmodel.advisor.DesignAdvisor`, and — when the best
   design beats the current one by a configurable factor — re-materializes
   the ASR under the new (extension, decomposition).

**Online re-materialization** (DESIGN §15): :meth:`AdaptiveDesigner.retune`
is safe to run inside a live daemon.  The replacement ASR is bulk-built
*without* the manager's lock so concurrent readers keep serving from the
old design; a catch-up observer subscribed to the object base records the
dirty regions of every update that lands mid-build (updaters hold the
manager's write lock per the :meth:`~repro.asr.manager.ASRManager.exclusive`
contract, so region capture is race-free); then one exclusive section
applies the coalesced catch-up delta — the same recompute-derives-the-
correct-post-state argument :meth:`~repro.asr.manager.ASRManager.recover`
relies on — and swaps old for new via
:meth:`~repro.asr.manager.ASRManager.replace`, a single atomic transition
with exactly one epoch bump.  The old ASR is never dropped until the
replacement is fully caught up, so any failure (including the armed crash
points ``asr.retune.build`` / ``asr.retune.register``) rolls back to the
old design still registered and consistent.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

from repro.asr.asr import AccessSupportRelation
from repro.asr.decomposition import Decomposition
from repro.asr.extensions import Extension
from repro.asr.maintenance import analyze_event, merge_regions, neighbourhood_delta
from repro.asr.manager import ASRManager
from repro.costmodel.advisor import DesignAdvisor, DesignChoice
from repro.costmodel.opmix import OperationMix, QuerySpec, UpdateSpec
from repro.errors import CostModelError
from repro.faults import reach
from repro.gom.events import AttributeSet, Event, SetInserted, SetRemoved
from repro.gom.paths import PathExpression


class WorkloadRecorder:
    """Counts the operations executed against one path expression.

    Query ranges are recorded as ``(i, j, kind)`` triples and updates as
    the edge index ``i`` of the paper's ``ins_i``.  The recorder can be
    attached to an object base to count update events automatically.

    Recording is thread-safe: the serving core's executor threads (and
    the ``POST /query`` handler) call ``record_*`` concurrently, so every
    mutation and every aggregate read takes the recorder's own lock —
    the same single-lock discipline as
    :class:`~repro.concurrency.ThreadSafeAccessStats`.
    """

    def __init__(self, path: PathExpression) -> None:
        self.path = path
        self.queries: Counter[tuple[int, int, str]] = Counter()
        self.updates: Counter[int] = Counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record_query(self, i: int, j: int, kind: str, count: int = 1) -> None:
        if kind not in ("fw", "bw"):
            raise CostModelError(f"query kind must be 'fw' or 'bw', got {kind!r}")
        if not 0 <= i < j <= self.path.n:
            raise CostModelError(f"invalid query range ({i}, {j})")
        with self._lock:
            self.queries[(i, j, kind)] += count

    def record_update(self, i: int, count: int = 1) -> None:
        if not 0 <= i < self.path.n:
            raise CostModelError(f"invalid update position {i}")
        with self._lock:
            self.updates[i] += count

    def attach(self, db) -> None:
        """Count update events on the object base automatically."""
        db.subscribe(self._on_event)

    def _on_event(self, event: Event) -> None:
        for s, step in enumerate(self.path.steps, start=1):
            if isinstance(event, AttributeSet):
                if step.attribute == event.attribute and event.type_name == step.domain_type:
                    self.record_update(s - 1)
            elif isinstance(event, (SetInserted, SetRemoved)):
                if step.collection_type == event.set_type:
                    self.record_update(s - 1)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    @property
    def total_queries(self) -> int:
        with self._lock:
            return sum(self.queries.values())

    @property
    def total_updates(self) -> int:
        with self._lock:
            return sum(self.updates.values())

    @property
    def total_operations(self) -> int:
        with self._lock:
            return sum(self.queries.values()) + sum(self.updates.values())

    def to_mix(self) -> tuple[OperationMix, float]:
        """The recorded workload as ``(OperationMix, P_up)``."""
        with self._lock:
            queries_snapshot = dict(self.queries)
            updates_snapshot = dict(self.updates)
        total_queries = sum(queries_snapshot.values())
        total_updates = sum(updates_snapshot.values())
        total = total_queries + total_updates
        if total == 0:
            raise CostModelError("no operations recorded yet")
        queries = tuple(
            (count / total_queries, QuerySpec(i, j, kind))
            for (i, j, kind), count in sorted(queries_snapshot.items())
        )
        updates = tuple(
            (count / total_updates, UpdateSpec(i))
            for i, count in sorted(updates_snapshot.items())
        )
        p_up = total_updates / total
        return OperationMix(queries=queries, updates=updates), p_up

    def reset(self) -> None:
        with self._lock:
            self.queries.clear()
            self.updates.clear()


class _CatchUpObserver:
    """Accumulates dirty regions while a replacement ASR builds unlocked.

    Subscribed to the object base for the duration of a retune's bulk
    build.  Events are delivered synchronously on the mutator's thread —
    which holds the manager's write lock per the ``exclusive()``
    contract — so computing the region *at event time* (it reads
    event-time graph state, exactly like the manager's ``_enqueue``) is
    safe; the observer's own lock covers the merge against the retune
    thread's final :meth:`take`.
    """

    def __init__(self, db, path: PathExpression) -> None:
        self._db = db
        self._path = path
        self._lock = threading.Lock()
        self._region = None

    def __call__(self, event: Event) -> None:
        region = analyze_event(self._db, self._path, event)
        if not region:
            return
        with self._lock:
            if self._region is None:
                self._region = region
            else:
                self._region = merge_regions(self._region, region)

    def take(self):
        with self._lock:
            region, self._region = self._region, None
            return region


@dataclass
class TuningDecision:
    """What the adaptive designer decided and why."""

    current_cost: float
    best: DesignChoice
    retuned: bool

    def describe(self) -> str:
        action = "switched to" if self.retuned else "kept current design over"
        return (
            f"current {self.current_cost:.1f} pages/op; {action} "
            f"{self.best.describe()}"
        )


class AdaptiveDesigner:
    """Closes the monitor → advise → re-materialize loop for one ASR."""

    def __init__(
        self,
        manager: ASRManager,
        asr: AccessSupportRelation,
        recorder: WorkloadRecorder,
        improvement_threshold: float = 1.2,
    ) -> None:
        if asr not in manager.asrs:
            raise CostModelError("the ASR must be registered with the manager")
        if improvement_threshold < 1.0:
            raise CostModelError("improvement threshold must be >= 1")
        self.manager = manager
        self.asr = asr
        self.recorder = recorder
        #: Where the measured profile lives: the manager's price list,
        #: which its planners (and a serving world's drift monitor)
        #: price from.
        self.costs = manager.costs
        self.improvement_threshold = improvement_threshold

    # ------------------------------------------------------------------

    def recommend(self) -> TuningDecision:
        """Advise on the recorded workload without changing anything.

        Every call re-measures the path's profile — the one place a
        :class:`~repro.costmodel.measured.MeasuredCosts` profile is
        refreshed, so whoever shares ``costs`` prices from this
        measurement until the next call.
        """
        mix, p_up = self.recorder.to_mix()
        path = self.asr.path
        # Profiling walks the live object graph; hold the read side so a
        # concurrent update transaction cannot tear the measurement.
        with self.manager.shared():
            self.costs.invalidate(path)
            advisor = DesignAdvisor(self.costs.profile_for(path))
            best = advisor.best(mix, p_up)
            current_cost = advisor.model.mix_cost(
                self.asr.extension, self.asr.type_decomposition, mix, p_up
            )
        should_switch = (
            best.cost * self.improvement_threshold < current_cost
            and not self._is_current(best)
        )
        return TuningDecision(current_cost, best, should_switch)

    def retune(self) -> TuningDecision:
        """Recommend and, when clearly better, re-materialize the ASR.

        Safe under concurrency: see the module docstring.  The old ASR
        keeps serving readers throughout the bulk build and is only
        replaced — atomically, with one epoch bump — once the
        replacement has absorbed every update that landed mid-build.
        Any failure along the way leaves the old ASR registered and
        consistent (rollback by construction: nothing was dropped yet).
        """
        decision = self.recommend()
        self.apply(decision)
        return decision

    def apply(self, decision: TuningDecision) -> bool:
        """Re-materialize per an already-made decision; True when applied.

        The :class:`~repro.resilience.advisor.AdvisorLoop` separates
        deciding (its own hysteresis/cooldown gates on top of
        :meth:`recommend`) from acting; this is the acting half.
        """
        if decision.retuned and decision.best.extension is not None:
            self._rematerialize(decision.best)
            return True
        return False

    def _rematerialize(self, best: DesignChoice) -> AccessSupportRelation:
        # The cost model's decomposition indices are type indices
        # (m = n); translate the borders to ASR column indices.
        column_borders = tuple(
            self.asr.path.column_of(border)
            for border in best.decomposition.borders
        )
        injector = self.manager._injector()
        observer = _CatchUpObserver(self.manager.db, self.asr.path)
        self.manager.db.subscribe(observer)
        try:
            reach(injector, "asr.retune.build")
            replacement = AccessSupportRelation.build(
                self.manager.db,
                self.asr.path,
                best.extension,
                Decomposition(column_borders),
            )
            # Warm the by-cell index here, outside the lock, so the first
            # update after the swap does not pay for it under the write
            # lock (``Relation.containing`` would build it on first use).
            replacement.extension_relation.index_cells()
            with self.manager.exclusive():
                # Mutators need this lock, so no further events can
                # interleave between catch-up and swap.
                self.manager.db.unsubscribe(observer)
                region = observer.take()
                if region:
                    added, removed = neighbourhood_delta(
                        self.manager.db,
                        self.asr.path,
                        replacement.extension,
                        replacement.extension_relation,
                        region,
                    )
                    replacement.apply_delta(added, removed, None)
                reach(injector, "asr.retune.register")
                self.manager.replace(self.asr, replacement)
        finally:
            # On the success path the observer is already gone; on any
            # failure this is the whole rollback — the old ASR was never
            # dropped, so it is still registered, consistent, serving.
            try:
                self.manager.db.unsubscribe(observer)
            except ValueError:
                pass
        self.asr = replacement
        return replacement

    # ------------------------------------------------------------------

    def _is_current(self, choice: DesignChoice) -> bool:
        if choice.extension is None:
            return False
        # Compare by value, not identity: advisors constructed per-sweep
        # hand back fresh DesignChoice objects, and an identity compare
        # would report "not current" forever — oscillating the designer
        # into re-materializing the same design on every sweep.
        return (
            choice.extension == self.asr.extension
            and choice.decomposition == self.asr.type_decomposition
        )
