"""The comparison-based computational model of Definition 2.1.

A summary in this model splits its memory into an *item array* ``I`` (stored
stream items, kept sorted) and *general memory* ``G`` (counters, rank bounds,
anything that is not an item).  The lower bound counts only ``|I|``.

* :class:`QuantileSummary` is the abstract interface every algorithm in
  :mod:`repro.summaries` implements.
* :class:`MemoryState` and :func:`equivalent` implement Definition 3.1
  (memory-state equivalence up to renaming of stored items).
* :class:`ComplianceMonitor` wraps a summary and checks, at runtime, the
  structural rules of Definition 2.1 (items stored must come from the stream,
  the item array is sorted, discarded items do not silently return, queries
  return stored items).
"""

from repro.model.memory import MemoryState, equivalent
from repro.model.summary import QuantileSummary
from repro.model.compliance import ComplianceMonitor
from repro.model.lanes import promote_to_columnar
from repro.model.registry import (
    available_summaries,
    columnar_summaries,
    create_summary,
    has_merge,
    merge_summaries,
    mergeable_summaries,
)

__all__ = [
    "ComplianceMonitor",
    "MemoryState",
    "QuantileSummary",
    "available_summaries",
    "columnar_summaries",
    "create_summary",
    "equivalent",
    "has_merge",
    "merge_summaries",
    "mergeable_summaries",
    "promote_to_columnar",
]
