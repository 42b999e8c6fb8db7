"""Crash-consistency states of stored ASRs.

A failure mid-delta must never leave an ASR *silently* torn — a torn ASR
returns wrong query results — so every delta application (eager or
batched, :mod:`repro.asr.manager`) drives its ASR through a small state
machine:

1. the manager computes the row delta and marks the ASR
   :attr:`ASRState.APPLYING` before any tree is touched;
2. the delta is applied to the partitions and their trees;
3. the ASR returns to :attr:`ASRState.CONSISTENT`.

A crash or storage fault between 1 and 3 leaves the ASR
:attr:`ASRState.QUARANTINED`: queries refuse to read it (the planner
falls back to another decomposition or to unsupported evaluation) and
:meth:`~repro.asr.manager.ASRManager.recover` derives it again from the
object base.  Nothing about the interrupted delta needs to be kept: an
ASR is a function of the object base (Defs. 3.4-3.8), so the repair
reads only the live graph, and updates arriving while an ASR is
quarantined leave it alone.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["ASRState"]


class ASRState(Enum):
    """Maintenance state of one access support relation."""

    #: The stored state equals what a from-scratch rebuild would produce
    #: (up to pending batched work); queries may read it.
    CONSISTENT = "consistent"
    #: A delta is being applied right now.  Transient within one flush;
    #: never observed by queries in single-threaded use.
    APPLYING = "applying"
    #: A crash or fault interrupted a delta: the trees may be torn.
    #: Queries must not read the ASR until it is recovered or rebuilt.
    QUARANTINED = "quarantined"
