"""Deterministic fault injection for the storage simulator.

Production object stores treat clustering and index structures as
rebuildable but *verifiable* physical overlays; growing toward heavy
traffic means the system must survive storage faults rather than assume
they never happen.  This module supplies the policy object that makes
failures reproducible:

* **Probabilistic page faults** — :meth:`FaultInjector.on_read` /
  :meth:`FaultInjector.on_write` are consulted by every buffer scope
  (:mod:`repro.storage.stats`) on each *charged* page access and raise
  :class:`~repro.errors.InjectedFault` with the configured probability,
  driven by a seeded RNG so a failing run replays exactly.
* **Named crash points** — well-known call sites (the ASR flush and
  recovery pipeline in :mod:`repro.asr.manager`) call :func:`reach`
  with a dotted point name; an armed point raises
  :class:`~repro.errors.SimulatedCrash` (process death, not retryable)
  or a bounded number of :class:`~repro.errors.InjectedFault` raises
  (transient, retryable) at a chosen visit count.

An injector is hung off an :class:`~repro.context.ExecutionContext`
(``ExecutionContext(fault_injector=...)``), which threads it into every
buffer scope it creates, or passed directly to an
:class:`~repro.asr.manager.ASRManager`.

The crash-point names currently instrumented:

======================  ================================================
``asr.flush.journal``    every delta of a flush is computed and its ASR
                         marked APPLYING, no tree has been touched yet
``asr.flush.mid-delta``  one ASR's removed rows are applied, its added
                         rows are not — the canonical torn state
``asr.flush.post-delta`` one ASR's delta is fully applied but the ASR
                         is not yet back to CONSISTENT
``asr.apply.*``          the same three stages on the eager (per-event)
                         maintenance path
``asr.recover.replay``   a recovery attempt is about to re-derive the
                         extension from the object base
``asr.recover.reload``   the extension is re-derived; recovery is about
                         to reload every partition from it
``asr.retune.build``     ``ASRManager.rematerialize`` is about to
                         bulk-build a replacement ASR (old one still
                         serving)
``asr.retune.register``  the replacement is built and caught up; the
                         atomic swap has not happened yet
======================  ================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import InjectedFault, SimulatedCrash

__all__ = ["FaultInjector", "reach", "KNOWN_CRASH_POINTS"]

#: Every crash-point name the library currently instruments (arming an
#: unknown name is allowed — custom call sites may add their own — but
#: the CLI and tests validate against this list).
KNOWN_CRASH_POINTS = (
    "asr.apply.journal",
    "asr.apply.mid-delta",
    "asr.apply.post-delta",
    "asr.flush.journal",
    "asr.flush.mid-delta",
    "asr.flush.post-delta",
    "asr.recover.replay",
    "asr.recover.reload",
    "asr.retune.build",
    "asr.retune.register",
)


@dataclass
class _Arming:
    """One armed point: what to raise and when."""

    kind: str  # "crash" | "fault"
    fire_at: int  # absolute visit count at which the point first fires
    remaining: int  # for faults: how many more raises are left


class FaultInjector:
    """A reproducible fault policy for one execution.

    Parameters
    ----------
    seed:
        Seed for the probabilistic faults' RNG; identical seeds replay
        identical fault sequences for identical access sequences.
    read_fault_rate / write_fault_rate:
        Probability in ``[0, 1]`` that a charged page read / write
        raises :class:`~repro.errors.InjectedFault`.  Cache hits are
        never faulted: a resident page needs no physical I/O.
    """

    def __init__(
        self,
        seed: int | None = None,
        read_fault_rate: float = 0.0,
        write_fault_rate: float = 0.0,
    ) -> None:
        for name, rate in (("read", read_fault_rate), ("write", write_fault_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name}_fault_rate must lie in [0, 1], got {rate}")
        self.seed = seed
        self.read_fault_rate = read_fault_rate
        self.write_fault_rate = write_fault_rate
        self._rng = random.Random(seed)
        self._armed: dict[str, _Arming] = {}
        #: ``point name -> times visited`` (armed or not).
        self.hits: dict[str, int] = {}
        self.faults_injected = 0
        self.crashes_injected = 0

    # ------------------------------------------------------------------
    # arming named points
    # ------------------------------------------------------------------

    def crash_at(self, point: str, on_hit: int = 1) -> None:
        """Arm ``point`` to raise :class:`SimulatedCrash` on its
        ``on_hit``-th visit counted from now.  A crash point fires once
        and disarms itself (the "process" is dead; re-arm to crash the
        restarted run again)."""
        if on_hit < 1:
            raise ValueError("on_hit counts visits from 1")
        self._armed[point] = _Arming("crash", self.hits.get(point, 0) + on_hit, 1)

    def fault_at(self, point: str, times: int = 1, on_hit: int = 1) -> None:
        """Arm ``point`` to raise :class:`InjectedFault` on ``times``
        consecutive visits starting at the ``on_hit``-th from now —
        a transient fault that clears itself, for exercising retry."""
        if on_hit < 1:
            raise ValueError("on_hit counts visits from 1")
        if times < 1:
            raise ValueError("a transient fault fires at least once")
        self._armed[point] = _Arming("fault", self.hits.get(point, 0) + on_hit, times)

    def disarm(self, point: str | None = None) -> None:
        """Disarm one point, or every armed point when ``point`` is None."""
        if point is None:
            self._armed.clear()
        else:
            self._armed.pop(point, None)

    @property
    def armed_points(self) -> tuple[str, ...]:
        return tuple(sorted(self._armed))

    # ------------------------------------------------------------------
    # consultation (called by instrumented code)
    # ------------------------------------------------------------------

    def reach(self, point: str) -> None:
        """Record a visit of ``point``; raise if it is armed and due."""
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        arming = self._armed.get(point)
        if arming is None or count < arming.fire_at:
            return
        if arming.kind == "crash":
            del self._armed[point]
            self.crashes_injected += 1
            raise SimulatedCrash(f"simulated crash at {point!r} (visit {count})")
        if arming.remaining <= 0:
            return
        arming.remaining -= 1
        if arming.remaining == 0:
            del self._armed[point]
        self.faults_injected += 1
        raise InjectedFault(f"injected fault at {point!r} (visit {count})")

    def on_read(self, page_id, category: str = "page") -> None:
        """Consulted by buffer scopes on every charged page read."""
        if self.read_fault_rate and self._rng.random() < self.read_fault_rate:
            self.faults_injected += 1
            raise InjectedFault(f"injected read fault on page {page_id!r} ({category})")

    def on_write(self, page_id, category: str = "page") -> None:
        """Consulted by buffer scopes on every charged page write."""
        if self.write_fault_rate and self._rng.random() < self.write_fault_rate:
            self.faults_injected += 1
            raise InjectedFault(
                f"injected write fault on page {page_id!r} ({category})"
            )

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed!r}, read={self.read_fault_rate:g}, "
            f"write={self.write_fault_rate:g}, armed={list(self._armed)}, "
            f"faults={self.faults_injected}, crashes={self.crashes_injected})"
        )


def reach(injector: FaultInjector | None, point: str) -> None:
    """None-safe :meth:`FaultInjector.reach` for instrumented call sites."""
    if injector is not None:
        injector.reach(point)
