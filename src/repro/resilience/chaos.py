"""Live chaos injection: arm the fault injector from the op stream.

:class:`~repro.faults.FaultInjector` has always been deterministic but
*offline* — tests arm a crash point, run one flush, assert the torn
state.  :class:`ChaosController` arms the same named points from the
daemon's live operation stream at a seeded rate, so faults land while
concurrent clients, the healer, and the breakers are all in motion —
production shape, still replayable from the seed.

Strikes arm *named points* (``fault_at``/``crash_at``) rather than
probabilistic page-fault rates on purpose: page-rate faults escape from
arbitrary query evaluation and would kill client loops outright, whereas
named maintenance points quarantine the ASR through the fenced delta
pipeline — the failure mode this layer is built to heal.
A struck point stays armed until some operation actually reaches it
(e.g. an update driving ``asr.apply.mid-delta``), which is exactly how
a latent storage fault behaves: armed now, observed at next touch.

Burst "storms": with probability :attr:`ChaosConfig.burst_chance`, a
strike expands into :attr:`ChaosConfig.burst` consecutive strikes — the
back-to-back fault trains that make a healer race its own backoff
ladder.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.faults import KNOWN_CRASH_POINTS, FaultInjector

__all__ = ["ChaosConfig", "ChaosController", "parse_chaos_points"]

#: Default strike target: tear an apply mid-delta (quarantines the
#: ASR for the healer).  A recovery-point strike costs a real healer
#: attempt, and a storm re-arms faster than the healer sweeps, so one
#: would exhaust its episode in well under a second: recovery storms
#: are opt-in through ``--chaos-crash-points``.
DEFAULT_CHAOS_POINTS = (("asr.apply.mid-delta", "fault"),)


def parse_chaos_points(spec: str) -> tuple[tuple[str, str], ...]:
    """Parse ``--chaos-crash-points``: ``point[:crash][,point...]``.

    Each entry names a :data:`~repro.faults.KNOWN_CRASH_POINTS` member;
    a ``:crash`` suffix arms :class:`~repro.errors.SimulatedCrash`
    (non-retryable) instead of a transient fault.
    """
    points: list[tuple[str, str]] = []
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        name, _, kind = entry.partition(":")
        kind = kind or "fault"
        if kind not in ("fault", "crash"):
            raise ValueError(
                f"chaos point {entry!r}: suffix must be ':crash', not {kind!r}"
            )
        if name not in KNOWN_CRASH_POINTS:
            raise ValueError(
                f"unknown chaos point {name!r}; known: {list(KNOWN_CRASH_POINTS)}"
            )
        points.append((name, kind))
    if not points:
        raise ValueError("chaos point spec names no points")
    return tuple(points)


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos regime: how often, how hard, and where to strike."""

    #: Per-operation strike probability in ``[0, 1]``; zero disables.
    rate: float = 0.0
    #: Strikes per burst storm (0 disables storms; a burst replaces a
    #: single strike with this many consecutive ones).
    burst: int = 0
    #: Probability that a strike escalates into a burst.
    burst_chance: float = 0.25
    #: ``(point, kind)`` strike targets; kind is ``fault`` or ``crash``.
    points: tuple[tuple[str, str], ...] = field(default=DEFAULT_CHAOS_POINTS)
    #: Seed of the strike RNG (replayable storms).
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("chaos rate must lie in [0, 1]")
        if self.burst < 0:
            raise ValueError("burst must be >= 0")
        if not 0.0 <= self.burst_chance <= 1.0:
            raise ValueError("burst_chance must lie in [0, 1]")
        for _name, kind in self.points:
            if kind not in ("fault", "crash"):
                raise ValueError(f"chaos point kind must be fault|crash, not {kind!r}")

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0 and bool(self.points)


class ChaosController:
    """Strikes the injector as operations flow; thread-safe, seeded."""

    def __init__(
        self,
        injector: FaultInjector,
        config: ChaosConfig | None = None,
        registry=None,
    ) -> None:
        self.injector = injector
        self.config = config or ChaosConfig()
        self.registry = registry
        self._rng = random.Random(self.config.seed)
        self._lock = threading.Lock()
        self._burst_left = 0
        self._stopped = False
        self.strikes = 0
        self.bursts = 0

    def on_operation(self, op=None) -> bool:
        """Consult the chaos policy for one admitted operation.

        Returns True when this operation drew a strike (one named point
        was armed).  Called from client threads and the admission loop;
        the controller's own lock makes the draw-and-arm atomic.
        """
        config = self.config
        if self._stopped or not config.enabled:
            return False
        with self._lock:
            if self._burst_left > 0:
                self._burst_left -= 1
            elif self._rng.random() < config.rate:
                if config.burst > 0 and self._rng.random() < config.burst_chance:
                    self._burst_left = config.burst - 1
                    self.bursts += 1
                    if self.registry is not None:
                        self.registry.inc("chaos.bursts")
            else:
                return False
            point, kind = config.points[self._rng.randrange(len(config.points))]
            if kind == "crash":
                self.injector.crash_at(point)
            else:
                self.injector.fault_at(point, times=1)
            self.strikes += 1
            if self.registry is not None:
                self.registry.inc("chaos.strikes", point=point, kind=kind)
            return True

    def stop(self) -> None:
        """Disarm everything and refuse further strikes (drain step 1)."""
        with self._lock:
            self._stopped = True
            self._burst_left = 0
            self.injector.disarm()

    def describe(self) -> dict:
        """JSON-able summary for reports and ``/healthz``."""
        with self._lock:
            return {
                "rate": self.config.rate,
                "burst": self.config.burst,
                "seed": self.config.seed,
                "points": [f"{name}:{kind}" for name, kind in self.config.points],
                "strikes": self.strikes,
                "bursts": self.bursts,
                "stopped": self._stopped,
                "faults_injected": self.injector.faults_injected,
                "crashes_injected": self.injector.crashes_injected,
                "armed_now": list(self.injector.armed_points),
            }
