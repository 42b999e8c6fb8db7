"""Self-healing resilience layer (DESIGN §13).

The crash-consistency machinery of :mod:`repro.asr` makes faults
*survivable*: a torn delta quarantines its ASR and
:meth:`~repro.asr.manager.ASRManager.recover` derives it again from the
object base, one attempt per call.  This package makes faults
*routine* — the serving daemon keeps meeting its SLOs while faults
fire, heal, and fire again:

* :class:`~repro.resilience.policy.RecoveryPolicy` — the healer's
  pacing: exponential backoff with seeded jitter between attempts, and
  the attempts per quarantine episode before it gives up.
* :class:`~repro.resilience.healer.HealerLoop` — the only retry ladder:
  a background task watching the manager's quarantine set and driving
  ``recover()`` under the policy, publishing ``healer.recoveries`` /
  ``healer.failures`` / ``healer.mttr_ms``.
* :class:`~repro.resilience.chaos.ChaosController` — attaches the
  existing :class:`~repro.faults.FaultInjector` to the live operation
  stream at seeded rates (including burst storms), so the healer is
  continuously exercised in production shape.
* :class:`~repro.resilience.breaker.CircuitBreaker` /
  :class:`~repro.resilience.breaker.BreakerBoard` — a per-ASR breaker
  that opens after repeated faults and routes queries to the degraded
  GOM-traversal fallback (Litwin's stored-vs-inherited duality: the
  answer stays derivable from the base objects) until a half-open probe
  proves the stored relation stable again.

Import discipline: nothing in this package imports from
:mod:`repro.asr` at module level — the healer and the board treat
managers and ASRs duck-typed (``manager.quarantined``,
``asr.state.value``).  The §7 self-tuning loop re-materializes ASRs, so
it lives in the ASR layer: :class:`~repro.asr.adaptive.AdvisorLoop`.
"""

from repro.resilience.breaker import BreakerBoard, CircuitBreaker
from repro.resilience.chaos import ChaosConfig, ChaosController
from repro.resilience.healer import HealerLoop
from repro.resilience.policy import RecoveryPolicy

__all__ = [
    "BreakerBoard",
    "ChaosConfig",
    "ChaosController",
    "CircuitBreaker",
    "HealerLoop",
    "RecoveryPolicy",
]
