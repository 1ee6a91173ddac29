"""MALEC core: the paper's primary contribution.

This package implements the two mechanisms the paper proposes:

* **Page-Based Memory Access Grouping** (Sec. IV) — the
  :class:`~repro.core.input_buffer.InputBuffer` groups pending loads and
  evicted merge-buffer entries by virtual page so that a single address
  translation per cycle can be shared by the whole group, and the
  :class:`~repro.core.arbitration.ArbitrationUnit` distributes the group over
  the four single-ported cache banks, merging loads that fall into the same
  cache line (or aligned sub-block pair).
* **Page-Based Way Determination** (Sec. V) — the
  :class:`~repro.core.way_table.WayTableHierarchy` attaches a way table to
  each TLB level (uWT next to the uTLB, WT next to the TLB) holding 2-bit
  validity + way codes for all 64 lines of a translated page, letting most
  accesses bypass the L1 tag arrays entirely.

The :class:`~repro.core.wdu.WayDeterminationUnit` re-implements Nicolaescu et
al.'s line-based WDU (extended with validity bits, as the paper does for its
comparison in Sec. VI-C).

Each structure keeps the entry points :class:`~repro.interfaces.malec.MalecInterface`
runs (the generated kernels inline the same decisions):

* :class:`InputBuffer` — ``add_load``/``add_mbe``, ``select_group``,
  ``retire``/``end_cycle`` and ``take_mbe``; the load back-pressure rule is
  the interface's ``can_accept_load``;
* :class:`ArbitrationUnit` — ``arbitrate`` (bank selection, merging, way
  hints);
* :class:`WayTableHierarchy` — ``predict_page`` (the page's entry, read with
  ``WayTableEntry.way_of``), ``feedback_conventional_hit``, the
  ``on_line_fill``/``on_line_evict`` coherence hooks and the TLB
  synchronisation callbacks.  Way coverage has one definition,
  :attr:`repro.sim.simulator.SimulationResult.way_coverage`.
"""

from repro.core.request import AccessKind, MemoryAccessRequest
from repro.core.way_table import WayTable, WayTableEntry, WayTableHierarchy
from repro.core.wdu import WayDeterminationUnit, WayPrediction
from repro.core.input_buffer import InputBuffer, PageGroup
from repro.core.arbitration import ArbitrationUnit, BankRequest, ArbitrationResult

__all__ = [
    "AccessKind",
    "MemoryAccessRequest",
    "WayPrediction",
    "WayTable",
    "WayTableEntry",
    "WayTableHierarchy",
    "WayDeterminationUnit",
    "InputBuffer",
    "PageGroup",
    "ArbitrationUnit",
    "BankRequest",
    "ArbitrationResult",
]
