"""The background advisor: the paper's §7 self-tuning loop, live.

Before this module, :class:`~repro.asr.adaptive.AdaptiveDesigner` ran
offline: someone had to record a workload, call ``recommend()``, and
apply the verdict by hand.  :class:`AdvisorLoop` is that someone,
automated — a daemon thread sweeps every ``interval`` seconds, asks the
designer to re-cost the (extension, decomposition) choice against the
*measured* op mix, and, when a different configuration wins by enough
for long enough, re-materializes the ASR online through the designer's
crash-safe retune path (build unlocked, catch up, one atomic swap, one
epoch bump — see ``asr/adaptive.py``).

Decision gates, in order:

* **evidence floor** — fewer than ``min_ops`` recorded operations since
  the last retune rejects the sweep (``insufficient-ops``): the recorder
  must see a representative mix before it is trusted;
* **baseline** — the advisor may conclude *no ASR at all* is cheapest;
  the loop refuses to de-materialize a serving index (``baseline``);
* **improvement** — the designer must say the best design beats the
  current one (``not-better``); its ``improvement_threshold`` is the one
  hysteresis gate, so ``retuned`` already means the predicted gain
  (current cost / best cost) cleared it;
* **cooldown** — at most one retune per ``cooldown`` seconds
  (``cooldown``): a mix oscillating around the break-even point must
  not thrash rebuilds;
* **dry-run** — with ``dry_run=True`` the loop records what it *would*
  have done (visible in :meth:`describe` and ``advisor.rejected``
  labelled ``dry-run``) without touching the physical design.

A retune that fails mid-build rolls back by construction — the old ASR
was never dropped — and counts as ``build-failed``; the loop keeps
sweeping.  Metrics: ``advisor.sweeps`` / ``advisor.retunes`` /
``advisor.rejected{reason}`` counters and the ``advisor.predicted_gain``
gauge.  Each applied retune opens an ``advisor.retune`` trace so the
rebuild shows up in ``/trace/recent`` next to the requests it briefly
delayed.

Import discipline: like the healer, this module treats the designer
duck-typed (``recommend()``, ``apply(decision)``, ``recorder``,
``asr``) — nothing here imports from :mod:`repro.asr`.
"""

from __future__ import annotations

import math
import threading
import time

from repro.errors import CostModelError

__all__ = ["AdvisorLoop"]


class AdvisorLoop:
    """Periodically re-evaluates one ASR's physical design and retunes.

    Parameters are duck-typed so the loop stays free of
    :mod:`repro.asr` imports: ``designer`` needs ``recommend()``
    returning a decision with ``current_cost`` / ``best`` / ``retuned``,
    ``apply(decision)``, a ``recorder`` with ``total_operations`` /
    ``reset()``, and an ``asr`` with ``extension.value`` /
    ``decomposition``.
    """

    def __init__(
        self,
        designer,
        interval: float = 5.0,
        cooldown: float | None = None,
        min_ops: int = 32,
        dry_run: bool = False,
        registry=None,
        tracer=None,
        time_fn=time.monotonic,
    ) -> None:
        self.designer = designer
        self.interval = max(0.005, interval)
        #: Seconds between applied retunes; defaults to two sweeps so an
        #: oscillating mix cannot thrash rebuilds back to back.
        self.cooldown = 2.0 * self.interval if cooldown is None else cooldown
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

    def sweep(self, force: bool = False) -> bool:
        """One decision pass; returns True when a retune was applied.

        ``force`` skips the evidence floor and cooldown gates (used by
        tests and the bench soak's convergence probe); the designer's
        hysteresis threshold and the baseline refusal always stand.
        """
        with self._lock:
            self.sweeps += 1
        self._inc("advisor.sweeps")
        recorder = getattr(self.designer, "recorder", None)
        if not force and recorder is not None:
            if recorder.total_operations < self.min_ops:
                return self._reject("insufficient-ops")
        try:
            decision = self.designer.recommend()
        except CostModelError:
            return self._reject("insufficient-ops")
        except Exception:
            return self._reject("recommend-failed")
        gain = self._gain(decision)
        if self.registry is not None:
            self.registry.set_gauge("advisor.predicted_gain", round(gain, 4))
        summary = {
            "decision": decision.describe(),
            "predicted_gain": round(gain, 4),
            "at": self._time(),
        }
        with self._lock:
            self._last_decision = summary
        if decision.best.extension is None:
            # Cheapest is *no* ASR.  De-materializing a serving index is
            # an operator decision, not a background one: refuse.
            return self._reject("baseline")
        if not decision.retuned:
            return self._reject("not-better")
        if not force and self._in_cooldown():
            return self._reject("cooldown")
        if self.dry_run:
            with self._lock:
                self._history.append({**summary, "applied": False})
                del self._history[:-8]
            return self._reject("dry-run")
        return self._apply(decision, summary)

    def _apply(self, decision, summary: dict) -> bool:
        before = self._current_design()
        trace = (
            self.tracer.begin("advisor.retune", "advisor")
            if self.tracer is not None
            else None
        )
        if trace is not None:
            trace.annotate(before=before, predicted_gain=summary["predicted_gain"])
        try:
            self.designer.apply(decision)
        except Exception as error:
            # Rollback happened inside the designer: the old ASR was
            # never dropped, so it is still registered and serving.
            if trace is not None:
                trace.annotate(error=repr(error))
                self.tracer.finish(trace, "error")
            return self._reject("build-failed")
        after = self._current_design()
        if trace is not None:
            trace.annotate(after=after)
            self.tracer.finish(trace, "ok")
        recorder = getattr(self.designer, "recorder", None)
        if recorder is not None:
            # The measured mix belonged to the old design's era; the new
            # design earns its next verdict on fresh evidence.
            recorder.reset()
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

    def _gain(self, decision) -> float:
        best_cost = getattr(decision.best, "cost", 0.0)
        if best_cost <= 0.0:
            return math.inf
        return decision.current_cost / best_cost

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

    def _current_design(self) -> dict:
        asr = getattr(self.designer, "asr", None)
        if asr is None:
            return {}
        extension = getattr(asr, "extension", None)
        return {
            "extension": getattr(extension, "value", str(extension)),
            "decomposition": str(getattr(asr, "decomposition", "")),
        }

    # -- inspection ----------------------------------------------------

    def describe(self) -> dict:
        """JSON-able state for ``GET /advisor`` and the drain report."""
        recorder = getattr(self.designer, "recorder", None)
        with self._lock:
            return {
                "running": self.running,
                "dry_run": self.dry_run,
                "interval_s": self.interval,
                "threshold": getattr(self.designer, "improvement_threshold", None),
                "cooldown_s": self.cooldown,
                "min_ops": self.min_ops,
                "sweeps": self.sweeps,
                "retunes": self.retunes,
                "rejected": dict(self.rejected),
                "design": self._current_design(),
                "recorded_ops": (
                    recorder.total_operations if recorder is not None else 0
                ),
                "last_decision": self._last_decision,
                "history": list(self._history),
            }
