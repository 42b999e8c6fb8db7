"""Access support relations — the paper's core contribution (section 3).

The subpackage provides:

* :mod:`repro.asr.relation` — a small relational algebra (tuples with
  NULLs, natural and outer joins on the last↔first column) in which the
  extension definitions are expressed;
* :mod:`repro.asr.auxiliary` — the auxiliary relations ``E_j`` of
  Definition 3.3;
* :mod:`repro.asr.extensions` — the canonical / full / left- /
  right-complete extensions (Definitions 3.4–3.7);
* :mod:`repro.asr.decomposition` — decompositions and Theorem 3.9;
* :mod:`repro.asr.asr` — the stored form: partitions in two redundant
  B+ trees (section 5.2);
* :mod:`repro.asr.maintenance` — incremental updates (section 6);
* :mod:`repro.asr.journal` — crash-consistency states and write-ahead
  intent journals;
* :mod:`repro.asr.manager` — keeps a family of ASRs consistent with an
  object base by subscribing to its change events;
* :mod:`repro.asr.sharing` — the section 5.4 analysis of overlapping
  path expressions: shareable segments, the extensions under which
  sharing is legal, and the induced decompositions;
* :mod:`repro.asr.adaptive` — the section 7 self-tuning loop: the
  :class:`WorkloadRecorder` and the :class:`AdvisorLoop` that re-costs
  and re-materializes one ASR (:meth:`ASRManager.rematerialize`).
"""

from repro.asr.relation import Relation, JoinKind
from repro.asr.auxiliary import auxiliary_relations
from repro.asr.extensions import Extension, build_extension
from repro.asr.decomposition import Decomposition
from repro.asr.asr import AccessSupportRelation, StoredPartition
from repro.asr.journal import ASRState, IntentJournal
from repro.asr.manager import ASRManager
from repro.asr.sharing import SharedSegment, best_shared_design, shareable_segments
from repro.asr.adaptive import AdvisorLoop, WorkloadRecorder

__all__ = [
    "Relation",
    "JoinKind",
    "auxiliary_relations",
    "Extension",
    "build_extension",
    "Decomposition",
    "AccessSupportRelation",
    "StoredPartition",
    "ASRState",
    "IntentJournal",
    "ASRManager",
    "SharedSegment",
    "shareable_segments",
    "best_shared_design",
    "WorkloadRecorder",
    "AdvisorLoop",
]
