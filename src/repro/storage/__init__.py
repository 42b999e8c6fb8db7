"""Page-granular storage substrate.

The paper's cost model measures everything in *secondary page accesses*
(section 5.6).  This subpackage provides an executable counterpart:

* :mod:`repro.storage.stats` — page-access counters and per-operation
  buffer scopes (a page read twice within one operation is charged once,
  matching Yao's distinct-page counting);
* :mod:`repro.storage.pages` — page-geometry arithmetic (objects/tuples
  per page, Eqs. 13–18);
* :mod:`repro.storage.btree` — a real B+ tree with per-node page
  accounting, used to store access support relation partitions in the two
  redundant clusterings of section 5.2;
* :mod:`repro.storage.objectstore` — type-clustered object pages, the
  physical home of the object representations that unsupported queries
  must traverse.
"""

from repro.storage.stats import AccessStats, BufferScope, NullBuffer
from repro.storage.pages import (
    DEFAULT_PAGE_SIZE,
    DEFAULT_OID_SIZE,
    DEFAULT_PP_SIZE,
    btree_fanout,
    objects_per_page,
    pages_needed,
    tuple_size,
    tuples_per_page,
)
from repro.storage.btree import BPlusTree
from repro.storage.objectstore import ClusteredObjectStore

__all__ = [
    "AccessStats",
    "BufferScope",
    "NullBuffer",
    "BPlusTree",
    "ClusteredObjectStore",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_OID_SIZE",
    "DEFAULT_PP_SIZE",
    "btree_fanout",
    "objects_per_page",
    "pages_needed",
    "tuple_size",
    "tuples_per_page",
]
