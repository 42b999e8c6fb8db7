"""Per-ASR circuit breakers: route around a relation that keeps faulting.

The planner already degrades to the unsupported GOM traversal while an
ASR is *quarantined* — but a relation that faults, heals, and faults
again flaps between supported and degraded plans on every cycle.  The
breaker adds hysteresis.  Fault evidence (quarantine entries, failed
recovery attempts, evaluation faults) accumulates per ASR; at
``threshold`` consecutive failures the breaker **opens** and the planner
stops considering the ASR even while it is nominally CONSISTENT —
answers keep flowing from the base objects (Litwin's inherited-relation
fallback: the stored relation is an optimisation, never the only source
of truth).  After ``cooldown_s`` the breaker goes **half-open** and
admits exactly one probe query; a successful probe closes it, a failure
re-opens it for another cooldown.

Deliberate asymmetry: routine successful queries through a *closed*
breaker do not reset the failure count — only a half-open probe (or an
explicit :meth:`CircuitBreaker.reset`) clears it.  Under a fault storm
the storm's rhythm (fault, heal, one good query, fault …) would
otherwise keep the count at zero forever; counting only fault evidence
until a deliberate probe succeeds makes "N consecutive faults" mean *N
faults since the breaker last proved the relation stable*.

States are published as the ``breaker.state`` gauge (0 closed, 0.5
half-open, 1 open, labelled by ASR) and every transition bumps
``breaker.transitions`` labelled ``from``/``to``.
"""

from __future__ import annotations

import threading
import time

__all__ = ["CLOSED", "OPEN", "HALF_OPEN", "CircuitBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Gauge encoding of the states (monotone in "how broken").
_STATE_GAUGE = {CLOSED: 0.0, HALF_OPEN: 0.5, OPEN: 1.0}


class CircuitBreaker:
    """One resource's closed → open → half-open → closed state machine.

    ``time_fn`` is injectable so property tests drive the clock
    explicitly; production uses :func:`time.monotonic`.
    """

    def __init__(
        self,
        name: str,
        threshold: int = 3,
        cooldown_s: float = 1.0,
        registry=None,
        time_fn=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s < 0.0:
            raise ValueError("cooldown_s must be >= 0")
        self.name = name
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.registry = registry
        self._time = time_fn
        self._lock = threading.Lock()
        self.state = CLOSED
        self.failures = 0
        self._opened_at: float | None = None
        self._probe_at: float | None = None
        #: ``(from, to) -> count`` — every transition ever taken.
        self.transitions: dict[tuple[str, str], int] = {}
        self._publish_state()

    # -- internals (caller holds self._lock) ---------------------------

    def _publish_state(self) -> None:
        if self.registry is not None:
            self.registry.set_gauge(
                "breaker.state", _STATE_GAUGE[self.state], asr=self.name
            )

    def _transition(self, to: str) -> None:
        if to == self.state:
            return
        key = (self.state, to)
        self.transitions[key] = self.transitions.get(key, 0) + 1
        if self.registry is not None:
            self.registry.inc(
                "breaker.transitions",
                **{"asr": self.name, "from": self.state, "to": to},
            )
        self.state = to
        self._publish_state()

    # -- evidence ------------------------------------------------------

    def record_failure(self) -> None:
        """One fault attributed to this resource."""
        with self._lock:
            if self.state == OPEN:
                return  # already open; the cooldown clock keeps running
            self.failures += 1
            if self.state == HALF_OPEN or self.failures >= self.threshold:
                # A failed probe re-opens immediately; a closed breaker
                # opens once the threshold is met.
                self._opened_at = self._time()
                self._probe_at = None
                self._transition(OPEN)

    def record_success(self) -> None:
        """One *probe* succeeded (meaningful in the half-open state)."""
        with self._lock:
            if self.state == HALF_OPEN:
                self.failures = 0
                self._probe_at = None
                self._transition(CLOSED)
            elif self.state == CLOSED:
                # Explicit clears (e.g. an operator reset) also land
                # here; routine query successes never call this — see
                # the module docstring for why.
                self.failures = 0

    def reset(self) -> None:
        """Force-close (operator override / test convenience)."""
        with self._lock:
            self.failures = 0
            self._probe_at = None
            self._transition(CLOSED)

    # -- admission -----------------------------------------------------

    def allow(self) -> bool:
        """May a request use the resource right now?

        Closed: always.  Open: no, until ``cooldown_s`` elapses — then
        the breaker turns half-open and this call admits the probe.
        Half-open: one probe at a time; an unresolved probe expires
        after another ``cooldown_s`` so a crashed prober cannot wedge
        the breaker half-open forever.

        A closed breaker answers without the lock: a transition racing
        that read is indistinguishable from one landing just after it.
        """
        if self.state == CLOSED:
            return True
        with self._lock:
            if self.state == CLOSED:
                return True
            now = self._time()
            if self.state == OPEN:
                if self._opened_at is not None and (
                    now - self._opened_at >= self.cooldown_s
                ):
                    self._transition(HALF_OPEN)
                    self._probe_at = now
                    return True
                return False
            # HALF_OPEN: admit one probe per cooldown window.
            if self._probe_at is None or now - self._probe_at >= self.cooldown_s:
                self._probe_at = now
                return True
            return False

    def describe(self) -> dict:
        """JSON-able snapshot for ``/healthz`` and drain reports."""
        with self._lock:
            return {
                "state": self.state,
                "failures": self.failures,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "transitions": {
                    f"{src}->{dst}": count
                    for (src, dst), count in sorted(self.transitions.items())
                },
            }


class BreakerBoard:
    """The daemon's breakers, one per managed ASR, created lazily.

    Keys are ASR identities (ASRs are not hashable by value); display
    names are ``path [extension]``, matching the manager's own naming.
    The board is the glue between three producers of fault evidence —
    the manager's quarantine transitions (via
    :meth:`~repro.asr.manager.ASRManager.add_state_listener`), the
    healer's failed recovery attempts, and the planner's evaluation
    faults — and one consumer, the planner's candidate filter.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 1.0,
        registry=None,
        time_fn=time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.registry = registry
        self._time = time_fn
        self._lock = threading.Lock()
        self._breakers: dict[int, CircuitBreaker] = {}

    @staticmethod
    def name_of(asr) -> str:
        extension = getattr(asr, "extension", None)
        suffix = getattr(extension, "value", extension)
        return f"{asr.path} [{suffix}]" if suffix is not None else str(asr.path)

    def breaker_for(self, asr) -> CircuitBreaker:
        key = id(asr)
        breaker = self._breakers.get(key)  # breakers are never removed
        if breaker is not None:
            return breaker
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.name_of(asr),
                    threshold=self.threshold,
                    cooldown_s=self.cooldown_s,
                    registry=self.registry,
                    time_fn=self._time,
                )
                self._breakers[key] = breaker
            return breaker

    # -- evidence feeds ------------------------------------------------

    def on_asr_state(self, asr, state: str) -> None:
        """Manager state listener: a quarantine entry is a failure."""
        if state == "quarantined":
            self.breaker_for(asr).record_failure()

    def record_failure(self, asr) -> None:
        self.breaker_for(asr).record_failure()

    def record_success(self, asr) -> None:
        """Planner feedback after a successful supported evaluation.

        Only a half-open *probe* success is forwarded (it closes the
        breaker); routine successes through a closed breaker are not
        evidence — see the module docstring on the asymmetry.
        """
        breaker = self.breaker_for(asr)
        if breaker.state == HALF_OPEN:
            breaker.record_success()

    # -- planner admission --------------------------------------------

    def allow_query(self, asr) -> bool:
        return self.breaker_for(asr).allow()

    # -- inspection ----------------------------------------------------

    def describe(self) -> dict:
        with self._lock:
            breakers = list(self._breakers.values())
        report = {breaker.name: breaker.describe() for breaker in breakers}
        return {
            "threshold": self.threshold,
            "cooldown_s": self.cooldown_s,
            "open": sorted(
                name for name, entry in report.items() if entry["state"] != CLOSED
            ),
            "total_transitions": sum(
                count
                for entry in report.values()
                for count in entry["transitions"].values()
            ),
            "breakers": report,
        }
