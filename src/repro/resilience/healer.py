"""The background healer: quarantined ASRs recover without an operator.

Before this module, a quarantined ASR waited for a human to run ``repro
doctor --repair``.  :class:`HealerLoop` is that human, automated: a
daemon thread sweeps the manager's quarantine set every ``interval``
seconds and drives :meth:`~repro.asr.manager.ASRManager.recover` per
ASR under its :class:`~repro.resilience.policy.RecoveryPolicy`.
It is a thread of its own because recovery is lock-bound CPU work that
must not run on the serving core's event loop.

It is the only retry ladder: ``recover()`` makes exactly one attempt
(re-derive the ASR from the object base) under one write hold and never
sleeps, and the healer's episode pacing (the waits *between*
``recover()`` invocations) runs entirely outside any lock — the write
lock is never held across a sleep.

Per quarantine *episode* (first observation of an ASR in quarantine
until it leaves), the healer makes up to ``policy.episode_attempts``
``recover()`` calls, spaced by ``policy.delay`` with seeded jitter.
Exhausting them marks the episode **given up**: the healer stops
burning retries on it, ``/healthz`` degrades that ASR from "healing"
(200 with detail) to hard-down (503), and ``healer.gave_up`` counts it.
A successful recovery publishes ``healer.recoveries`` and observes the
episode's wall-clock in the ``healer.mttr_ms`` histogram; failures
publish ``healer.failures`` and feed the ASR's circuit breaker.

A :class:`~repro.errors.SimulatedCrash` striking *inside* a recovery
attempt kills that attempt, not the healer: the loop models a
supervisor that restarts its recovery job, so the crash counts as a
failed attempt and the episode ladder continues.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import InjectedFault, RecoveryError, SimulatedCrash
from repro.resilience.policy import RecoveryPolicy

__all__ = ["HealerLoop"]


@dataclass
class _Episode:
    """One ASR's current stay in quarantine, as the healer sees it."""

    name: str
    first_seen: float
    attempts: int = 0
    next_try: float = 0.0
    gave_up: bool = False
    errors: list[str] = field(default_factory=list)


class HealerLoop:
    """Watches ``manager.quarantined`` and drives ``recover()``.

    Parameters are duck-typed so the loop stays importable from
    :mod:`repro.asr.manager`'s dependency (no ``repro.asr`` imports
    here): ``manager`` needs ``quarantined`` and ``recover(asr)``,
    ``breakers`` (optional) needs ``record_failure(asr)``.
    """

    def __init__(
        self,
        manager,
        policy: RecoveryPolicy | None = None,
        interval: float = 0.25,
        registry=None,
        breakers=None,
        seed: int = 0,
        time_fn=time.monotonic,
    ) -> None:
        self.manager = manager
        self.policy = policy or RecoveryPolicy()
        self.interval = max(0.005, interval)
        self.registry = registry
        self.breakers = breakers
        self._rng = random.Random(seed)
        self._time = time_fn
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._episodes: dict[int, _Episode] = {}
        self.recoveries = 0
        self.failures = 0
        self.gave_up: list[str] = []
        self._mttr_count = 0
        self._mttr_total_ms = 0.0
        self._mttr_max_ms = 0.0
        if registry is not None:
            registry.gauge_fn("healer.episodes", lambda: len(self._episodes))

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "HealerLoop":
        if self._thread is not None:
            raise RuntimeError("healer already started")
        self._thread = threading.Thread(
            target=self._run, name="asr-healer", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sweep()

    def stop(self, final_sweep: bool = True) -> None:
        """Stop the loop; optionally force one last exhaustive sweep.

        The final sweep ignores episode pacing and give-up marks — at
        drain time (chaos already disarmed) every quarantined ASR gets
        one more unthrottled attempt, so the daemon exits consistent
        whenever consistency is reachable.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if final_sweep:
            self.sweep(force=True)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- the sweep -----------------------------------------------------

    def sweep(self, force: bool = False) -> int:
        """One pass over the quarantine set; returns ASRs recovered.

        ``force`` ignores backoff pacing and give-up marks (the drain
        path).  Safe to call concurrently with the loop — episode state
        is under the healer's own lock, and each ``recover()`` attempt
        takes the manager's write lock for itself.
        """
        quarantined = list(self.manager.quarantined)
        now = self._time()
        with self._lock:
            # Episodes for ASRs no longer quarantined ended elsewhere
            # (auto-recover, doctor, a concurrent sweep): close them out.
            current = {id(asr) for asr in quarantined}
            for key in list(self._episodes):
                if key not in current:
                    del self._episodes[key]
        recovered = 0
        for asr in quarantined:
            key = id(asr)
            with self._lock:
                episode = self._episodes.get(key)
                if episode is None:
                    episode = _Episode(self._name_of(asr), first_seen=now)
                    self._episodes[key] = episode
                if not force and (episode.gave_up or now < episode.next_try):
                    continue
            try:
                healed = self.manager.recover(asr)
            except (InjectedFault, RecoveryError, SimulatedCrash) as error:
                self._attempt_failed(asr, episode, error, force)
            else:
                if healed:
                    self._attempt_succeeded(episode)
                    recovered += healed
                with self._lock:
                    self._episodes.pop(key, None)
        return recovered

    def _attempt_failed(self, asr, episode: _Episode, error, force: bool) -> None:
        with self._lock:
            episode.attempts += 1
            episode.errors.append(repr(error))
            del episode.errors[:-3]  # keep the newest few
            self.failures += 1
            if not force and episode.attempts >= self.policy.episode_attempts:
                if not episode.gave_up:
                    episode.gave_up = True
                    self.gave_up.append(episode.name)
                    if self.registry is not None:
                        self.registry.inc("healer.gave_up")
            else:
                episode.next_try = self._time() + self.policy.delay(
                    episode.attempts, self._rng
                )
        if self.registry is not None:
            self.registry.inc("healer.failures")
        if self.breakers is not None:
            self.breakers.record_failure(asr)

    def _attempt_succeeded(self, episode: _Episode) -> None:
        mttr_ms = max(0.0, (self._time() - episode.first_seen) * 1e3)
        with self._lock:
            self.recoveries += 1
            self._mttr_count += 1
            self._mttr_total_ms += mttr_ms
            self._mttr_max_ms = max(self._mttr_max_ms, mttr_ms)
            if episode.name in self.gave_up:
                self.gave_up.remove(episode.name)
        if self.registry is not None:
            self.registry.inc("healer.recoveries")
            self.registry.observe("healer.mttr_ms", mttr_ms)

    @staticmethod
    def _name_of(asr) -> str:
        return str(getattr(asr, "path", asr))

    # -- inspection ----------------------------------------------------

    def describe(self) -> dict:
        """JSON-able state for ``/healthz`` and the drain report."""
        with self._lock:
            episodes = list(self._episodes.values())
            mttr = {
                "count": self._mttr_count,
                "mean_ms": round(
                    self._mttr_total_ms / self._mttr_count if self._mttr_count else 0.0,
                    3,
                ),
                "max_ms": round(self._mttr_max_ms, 3),
            }
            return {
                "running": self.running,
                "interval_s": self.interval,
                "recoveries": self.recoveries,
                "failures": self.failures,
                "mttr_ms": mttr,
                "retrying": sorted(e.name for e in episodes if not e.gave_up),
                "gave_up": sorted(e.name for e in episodes if e.gave_up),
                "episodes": [
                    {
                        "asr": e.name,
                        "attempts": e.attempts,
                        "gave_up": e.gave_up,
                        "errors": list(e.errors),
                    }
                    for e in episodes
                ],
            }
