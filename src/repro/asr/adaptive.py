"""Self-adjusting physical design (the paper's stated future work).

Section 7: "the cost model is intended to be integrated into our
object-oriented DBMS in order to verify a given physical database
design, or even to automate the task of physical database design.  Thus,
for a recorded database usage pattern the system could
(semi-)automatically adjust the physical database design."

This module implements that loop in two pieces over the model layer
(:class:`~repro.costmodel.advisor.DesignAdvisor`):

1. :class:`WorkloadRecorder` counts the executed operations — forward and
   backward queries by range, ``ins_i``-style updates — either via
   explicit ``record_*`` calls or by observing the object base's change
   events; :meth:`WorkloadRecorder.to_mix` turns the log into the cost
   model's ``(OperationMix, P_up)``;
2. :class:`AdvisorLoop` re-measures the live profile through the
   manager's :class:`~repro.costmodel.measured.MeasuredCosts` (which its
   planners — and in a serving world the drift monitor — price from, so
   a sweep refreshes their profile too), prices every design against the
   recorded mix, and — past its gates — re-materializes the ASR online
   through :meth:`~repro.asr.manager.ASRManager.rematerialize` (build
   unlocked, catch up, one atomic swap, one epoch bump).  In the serve
   daemon a thread sweeps every ``interval`` seconds; offline, one
   ``sweep(force=True)`` is the one-shot retune.

Decision gates, each applied once per sweep, in order:

* **evidence floor** — fewer than ``min_ops`` recorded operations since
  the last retune (or none at all) rejects the sweep
  (``insufficient-ops``): the recorder must see a representative mix
  before it is trusted;
* **advisor health** — pricing raised (``recommend-failed``); the loop
  must outlive it;
* **baseline** — the advisor may conclude *no ASR at all* is cheapest;
  the loop refuses to de-materialize a serving index (``baseline``);
* **improvement** — the best design must beat the current one by the
  factor ``threshold`` and differ from it (``not-better``);
* **cooldown** — at most one retune per two sweep intervals
  (``cooldown``): a mix oscillating around the break-even point must
  not thrash rebuilds;
* **dry-run** — with ``dry_run=True`` the loop records what it *would*
  have done (visible in :meth:`AdvisorLoop.describe`) without touching
  the physical design (``dry-run``).

A retune that fails mid-build rolls back by construction — the old ASR
was never dropped — and counts as ``build-failed``; the loop keeps
sweeping.  ``sweep(force=True)`` skips only the patience gates (the
floor and the cooldown).  Metrics: ``advisor.sweeps`` /
``advisor.retunes`` / ``advisor.rejected{reason}`` counters and the
``advisor.predicted_gain`` gauge.  Each applied retune opens an
``advisor.retune`` trace so the rebuild shows up in ``/trace/recent``
next to the requests it briefly delayed.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter

from repro.asr.asr import AccessSupportRelation
from repro.asr.decomposition import Decomposition
from repro.asr.manager import ASRManager
from repro.costmodel.advisor import DesignAdvisor, DesignChoice
from repro.costmodel.opmix import OperationMix, QuerySpec, UpdateSpec
from repro.errors import CostModelError
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
        self._schema = db.schema
        db.subscribe(self._on_event)

    def _on_event(self, event: Event) -> None:
        for s, step in enumerate(self.path.steps, start=1):
            if isinstance(event, AttributeSet):
                # An instance of a subtype updates the step too, as
                # maintenance sees it.
                if step.attribute == event.attribute and self._schema.is_subtype(
                    event.type_name, step.domain_type
                ):
                    self.record_update(s - 1)
            elif isinstance(event, (SetInserted, SetRemoved)):
                if step.collection_type == event.set_type:
                    self.record_update(s - 1)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

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


class AdvisorLoop:
    """Re-evaluates one ASR's physical design against the recorded mix.

    ``threshold`` is the predicted gain (current cost / best cost) a
    different design must clear before it is applied; applied retunes
    are at least two sweep intervals apart (the cooldown).  The loop
    follows its ASR across retunes (:attr:`asr` is the registered one).
    """

    def __init__(
        self,
        manager: ASRManager,
        asr: AccessSupportRelation,
        recorder: WorkloadRecorder,
        threshold: float = 1.2,
        interval: float = 5.0,
        min_ops: int = 32,
        dry_run: bool = False,
        registry=None,
        tracer=None,
        time_fn=time.monotonic,
    ) -> None:
        if asr not in manager.asrs:
            raise CostModelError("the ASR must be registered with the manager")
        if threshold < 1.0:
            raise CostModelError("improvement threshold must be >= 1")
        self.manager = manager
        self.asr = asr
        self.recorder = recorder
        self.threshold = threshold
        self.interval = max(0.005, interval)
        self.cooldown = 2.0 * self.interval
        self.min_ops = max(1, min_ops)
        self.dry_run = dry_run
        self.registry = registry
        self.tracer = tracer
        self._time = time_fn
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.sweeps = 0
        self.retunes = 0
        self.rejected: dict[str, int] = {}
        self._last_retune: float | None = None
        self._last_decision: dict | None = None
        self._history: list[dict] = []

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "AdvisorLoop":
        if self._thread is not None:
            raise RuntimeError("advisor already started")
        self._thread = threading.Thread(
            target=self._run, name="asr-advisor", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sweep()
            except Exception:  # pragma: no cover - the loop must outlive
                pass  # any single sweep; failures are counted in sweep()

    def stop(self) -> None:
        """Stop the loop.  No final sweep: a drain must not start a
        rebuild it would then have to wait out."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- the sweep -----------------------------------------------------

    def recommend(self) -> tuple[float, DesignChoice]:
        """Price the recorded mix: ``(current design's cost, best design)``.

        Every call re-measures the path's profile — the one place a
        :class:`~repro.costmodel.measured.MeasuredCosts` profile is
        refreshed, so whoever shares ``manager.costs`` prices from this
        measurement until the next call.  Raises
        :class:`~repro.errors.CostModelError` when nothing is recorded.
        """
        mix, p_up = self.recorder.to_mix()
        costs, path = self.manager.costs, self.asr.path
        # Profiling walks the live object graph; hold the read side so a
        # concurrent update transaction cannot tear the measurement.
        with self.manager.shared():
            costs.invalidate(path)
            advisor = DesignAdvisor(costs.profile_for(path))
            best = advisor.best(mix, p_up)
            current = advisor.model.mix_cost(
                self.asr.extension, self.asr.type_decomposition, mix, p_up
            )
        return current, best

    def sweep(self, force: bool = False) -> bool:
        """One decision pass; returns True when a retune was applied.

        ``force`` skips the evidence floor and cooldown gates (the
        offline one-shot retune; tests and the advisor soak's rollback
        and epoch proof); the threshold and the baseline refusal always
        stand.
        """
        with self._lock:
            self.sweeps += 1
        self._inc("advisor.sweeps")
        if not force and self.recorder.total_operations < self.min_ops:
            return self._reject("insufficient-ops")
        try:
            current, best = self.recommend()
        except CostModelError:
            return self._reject("insufficient-ops")
        except Exception:
            return self._reject("recommend-failed")
        gain = current / best.cost if best.cost > 0.0 else math.inf
        better = best.cost * self.threshold < current and not self._is_current(best)
        if self.registry is not None:
            self.registry.set_gauge("advisor.predicted_gain", round(gain, 4))
        action = "switched to" if better else "kept current design over"
        summary = {
            "decision": f"current {current:.1f} pages/op; {action} {best.describe()}",
            "predicted_gain": round(gain, 4),
            "at": self._time(),
        }
        with self._lock:
            self._last_decision = summary
        if best.extension is None:
            # Cheapest is *no* ASR.  De-materializing a serving index is
            # an operator decision, not a background one: refuse.
            return self._reject("baseline")
        if not better:
            return self._reject("not-better")
        if not force and self._in_cooldown():
            return self._reject("cooldown")
        if self.dry_run:
            with self._lock:
                self._history.append({**summary, "applied": False})
                del self._history[:-8]
            return self._reject("dry-run")
        return self._apply(best, summary)

    def _apply(self, best: DesignChoice, summary: dict) -> bool:
        before = self._design()
        trace = (
            self.tracer.begin("advisor.retune", "advisor")
            if self.tracer is not None
            else None
        )
        if trace is not None:
            trace.annotate(before=before, predicted_gain=summary["predicted_gain"])
        # The cost model's decomposition indices are type indices
        # (m = n); translate the borders to ASR column indices.
        path = self.asr.path
        decomposition = Decomposition(
            tuple(path.column_of(border) for border in best.decomposition.borders)
        )
        try:
            self.asr = self.manager.rematerialize(
                self.asr, best.extension, decomposition
            )
        except Exception as error:
            # Rolled back by construction: the old ASR was never
            # dropped, so it is still registered and serving.
            if trace is not None:
                trace.annotate(error=repr(error))
                self.tracer.finish(trace, "error")
            return self._reject("build-failed")
        after = self._design()
        if trace is not None:
            trace.annotate(after=after)
            self.tracer.finish(trace, "ok")
        # The measured mix belonged to the old design's era; the new
        # design earns its next verdict on fresh evidence.
        self.recorder.reset()
        with self._lock:
            self.retunes += 1
            self._last_retune = self._time()
            self._history.append(
                {**summary, "applied": True, "from": before, "to": after}
            )
            del self._history[:-8]
        self._inc("advisor.retunes")
        return True

    # -- gates ---------------------------------------------------------

    def _is_current(self, choice: DesignChoice) -> bool:
        # Compare by value, not identity: every sweep builds a fresh
        # advisor handing back fresh DesignChoice objects, and an
        # identity compare would report "not current" forever —
        # re-materializing the same design on every sweep.
        return (
            choice.extension == self.asr.extension
            and choice.decomposition == self.asr.type_decomposition
        )

    def _in_cooldown(self) -> bool:
        with self._lock:
            return (
                self._last_retune is not None
                and self._time() - self._last_retune < self.cooldown
            )

    def _reject(self, reason: str) -> bool:
        with self._lock:
            self.rejected[reason] = self.rejected.get(reason, 0) + 1
        self._inc("advisor.rejected", reason=reason)
        return False

    def _inc(self, name: str, **labels: str) -> None:
        if self.registry is not None:
            self.registry.inc(name, 1, **labels)

    def _design(self) -> dict:
        return {
            "extension": self.asr.extension.value,
            "decomposition": str(self.asr.decomposition),
        }

    # -- inspection ----------------------------------------------------

    def describe(self) -> dict:
        """JSON-able state for ``GET /advisor`` and the drain report."""
        with self._lock:
            return {
                "running": self.running,
                "dry_run": self.dry_run,
                "interval_s": self.interval,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown,
                "min_ops": self.min_ops,
                "sweeps": self.sweeps,
                "retunes": self.retunes,
                "rejected": dict(self.rejected),
                "design": self._design(),
                "recorded_ops": self.recorder.total_operations,
                "last_decision": self._last_decision,
                "history": list(self._history),
            }
