"""Load queue, store buffer and merge buffer.

These structures are common to all analyzed configurations (Table I keeps
their sizes identical across Base1ldst, Base2ld1st and MALEC): a 40-entry
load queue, a 24-entry store buffer holding speculative stores until they
commit, and a 4-entry merge buffer that coalesces committed stores to the
same cache line before they are written back to the L1.

MALEC changes only their *lookup structures*: because all accesses of a cycle
share one page id, the store and merge buffer lookups are split into a shared
page-id segment and per-access narrow offset segments (Sec. IV).  Both
full-width and split lookups are counted so the energy model can weigh them,
even though the paper ultimately excludes LQ/SB/MB energy from its results
(it is similar across configurations).

Each class keeps the state and the entry points a simulation runs:

* :class:`LoadQueue` — ``allocate_issued`` at load submission and
  ``complete_release`` when the data returns (charging the latency);
* :class:`StoreBuffer` — ``insert``, ``mark_committed`` and
  ``pop_committed`` on the store commit path;
* :class:`MergeBuffer` — ``commit_store`` (merge or evict) and the final
  ``drain``.

The per-load store-to-load forwarding search over both buffers is one
routine, :meth:`repro.interfaces.base.BaseL1Interface._forwarding_lookups`
(the generated kernels inline the same scan); the buffers only contribute
their entry lists, counters and the per-cycle ``charge_shared_page_lookup``.
"""

from repro.buffers.load_queue import LoadQueue, LoadQueueEntry
from repro.buffers.store_buffer import StoreBuffer, StoreBufferEntry
from repro.buffers.merge_buffer import MergeBuffer, MergeBufferEntry

__all__ = [
    "LoadQueue",
    "LoadQueueEntry",
    "StoreBuffer",
    "StoreBufferEntry",
    "MergeBuffer",
    "MergeBufferEntry",
]
