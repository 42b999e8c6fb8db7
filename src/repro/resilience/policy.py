"""The healer's pacing: how often, and how long, it retries a recovery.

``ASRManager.recover`` makes one attempt per call and never sleeps, so
the :class:`~repro.resilience.healer.HealerLoop` is the only retry
ladder, and this frozen value is its whole configuration: "how hard do
we try before declaring an ASR dead" is one decision, made once,
visible in one place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["RecoveryPolicy"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """How persistently (and how politely) the healer retries.

    The :class:`~repro.resilience.healer.HealerLoop` invokes
    ``recover()`` (one attempt each) up to :attr:`episode_attempts`
    times per quarantine episode, spacing the invocations by the
    :meth:`delay` ladder, before it gives up and leaves the ASR for
    ``/healthz`` to report as hard-down.
    """

    #: Base of the exponential backoff ladder, in seconds.  Zero keeps
    #: the simulator (and the test suite) fast while still counting
    #: attempts.
    backoff_s: float = 0.0
    #: Ladder growth factor: attempt ``k`` waits ``backoff_s *
    #: multiplier**(k-1)`` seconds (before jitter and the cap).
    multiplier: float = 2.0
    #: Fractional jitter: the delay is scaled by a seeded uniform draw
    #: from ``[1 - jitter, 1 + jitter]`` so a fleet of healers does not
    #: retry in lockstep.  Zero disables jitter.
    jitter: float = 0.0
    #: Upper bound on any single delay, in seconds.
    max_delay_s: float = 30.0
    #: ``recover()`` attempts per quarantine episode before the healer
    #: gives up on that ASR.
    episode_attempts: int = 5

    def __post_init__(self) -> None:
        if self.backoff_s < 0.0:
            raise ValueError("backoff_s must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must lie in [0, 1)")
        if self.max_delay_s < 0.0:
            raise ValueError("max_delay_s must be >= 0")
        if self.episode_attempts < 1:
            raise ValueError("episode_attempts must be >= 1")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Seconds to wait before retry ``attempt`` (counted from 1).

        Attempt 0 (the first try) never waits.  ``rng`` drives the
        jitter; pass a seeded :class:`random.Random` for replayable
        schedules, or None for the undithered ladder.
        """
        if attempt < 1 or self.backoff_s <= 0.0:
            return 0.0
        delay = self.backoff_s * self.multiplier ** (attempt - 1)
        delay = min(delay, self.max_delay_s)
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)
