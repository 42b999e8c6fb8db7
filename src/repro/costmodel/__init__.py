"""The analytical cost model of the paper (sections 4–6).

Everything is measured in *secondary page accesses*.  Inputs are an
:class:`~repro.costmodel.parameters.ApplicationProfile` (the table of
Figure 3: object counts ``c_i``, defined-attribute counts ``d_i``,
fan-outs ``fan_i``, sharing ``shar_i``, object sizes ``size_i``) and
:class:`~repro.costmodel.parameters.SystemParameters` (page and OID
sizes).  On top of them:

* :mod:`repro.costmodel.derived` — the probabilistic quantities of
  section 4.1 and 5.6 (``RefBy``, ``Ref``, ``path``, …, Eqs. 1–12, 29–30);
* :mod:`repro.costmodel.yao` — Yao's block-access formula;
* :mod:`repro.costmodel.cardinality` — partition cardinalities
  ``#E^{i,j}_X`` for the four extensions (section 4.2);
* :mod:`repro.costmodel.storagecost` — tuple/page sizes and B+ tree
  shapes (sections 4.3 and 5.5);
* :mod:`repro.costmodel.querycost` — query costs with and without access
  support relations (sections 5.6–5.8, Eqs. 31–35);
* :mod:`repro.costmodel.updatecost` — maintenance costs for ``ins_i``
  updates (section 6, Eq. 36 and the cluster-count formulas);
* :mod:`repro.costmodel.opmix` — weighted operation mixes (section 6.4);
* :mod:`repro.costmodel.advisor` — exhaustive physical-design search
  over (extension, decomposition) pairs, the paper's stated application;
* :mod:`repro.costmodel.measured` — :class:`MeasuredCosts`, an object
  base's one price list over its measured profiles (section 7).
"""

from repro.costmodel.parameters import ApplicationProfile, SystemParameters
from repro.costmodel.derived import DerivedQuantities
from repro.costmodel.yao import yao
from repro.costmodel.cardinality import partition_cardinality, extension_cardinality
from repro.costmodel.storagecost import StorageModel
from repro.costmodel.querycost import QueryCostModel
from repro.costmodel.updatecost import UpdateCostModel
from repro.costmodel.opmix import OperationMix, QuerySpec, UpdateSpec, MixCostModel
from repro.costmodel.advisor import DesignAdvisor, DesignChoice
from repro.costmodel.profiling import profile_from_database
from repro.costmodel.measured import MeasuredCosts

__all__ = [
    "ApplicationProfile",
    "SystemParameters",
    "DerivedQuantities",
    "yao",
    "partition_cardinality",
    "extension_cardinality",
    "StorageModel",
    "QueryCostModel",
    "UpdateCostModel",
    "OperationMix",
    "QuerySpec",
    "UpdateSpec",
    "MixCostModel",
    "DesignAdvisor",
    "DesignChoice",
    "profile_from_database",
    "MeasuredCosts",
]
