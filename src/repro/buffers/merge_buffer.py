"""Merge buffer: coalesces committed stores before they reach the L1.

Committed stores move from the store buffer into the merge buffer (MB, 4
entries in Table II).  Stores to the same cache line merge into one entry, so
the number of L1 write accesses is reduced.  When the buffer is full the
oldest entry is evicted and becomes a *merge buffer entry* (MBE) travelling
to the cache — through the Input Buffer in MALEC (lowest priority, not time
critical) or directly through a cache port in the baselines.

Loads must also search the MB, since it can hold data newer than the cache;
MALEC uses the same split (shared page-id + narrow offset) lookup structure
as for the store buffer.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


class MergeBufferEntry:
    """One cache line's worth of merged, committed store data (slotted)."""

    __slots__ = ("line_address", "store_count", "dirty_bytes", "allocation_cycle")

    def __init__(
        self,
        line_address: int,
        store_count: int = 1,
        dirty_bytes: int = 0,
        allocation_cycle: int = 0,
    ) -> None:
        self.line_address = line_address
        self.store_count = store_count
        self.dirty_bytes = dirty_bytes
        self.allocation_cycle = allocation_cycle


class MergeBuffer:
    """Fixed-capacity, line-granular write-combining buffer."""

    def __init__(
        self,
        entries: int = 4,
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError("the merge buffer needs at least one entry")
        self.entries = entries
        self.layout = layout
        self.stats = stats if stats is not None else StatCounters()
        self._entries: List[MergeBufferEntry] = []
        # Per-access counters resolved to integer slots once (hot path).
        self._h_merged_store = self.stats.handle("mb.merged_store")
        self._h_eviction = self.stats.handle("mb.eviction")
        self._h_allocate = self.stats.handle("mb.allocate")
        self._h_lookup_offset = self.stats.handle("mb.lookup_offset")
        self._h_lookup_full = self.stats.handle("mb.lookup_full")
        self._h_forward_hit = self.stats.handle("mb.forward_hit")
        self._h_lookup_page_shared = self.stats.handle("mb.lookup_page_shared")

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of lines currently buffered."""
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when an incoming store to a new line would force an eviction."""
        return len(self._entries) >= self.entries

    def _find(self, line_address: int) -> Optional[MergeBufferEntry]:
        for entry in self._entries:
            if entry.line_address == line_address:
                return entry
        return None

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def commit_store(
        self, virtual_address: int, size: int = 4, cycle: int = 0
    ) -> Optional[MergeBufferEntry]:
        """Place a committed store into the buffer.

        Returns the evicted :class:`MergeBufferEntry` when the buffer had to
        make room (the caller forwards it to the cache / Input Buffer), or
        ``None`` when the store merged or a free slot existed.
        """
        line_address = self.layout.line_address(virtual_address)
        existing = self._find(line_address)
        if existing is not None:
            existing.store_count += 1
            existing.dirty_bytes += size
            self.stats.bump(self._h_merged_store)
            return None

        evicted: Optional[MergeBufferEntry] = None
        if self.full:
            evicted = self._entries.pop(0)
            self.stats.bump(self._h_eviction)
        self._entries.append(
            MergeBufferEntry(
                line_address=line_address,
                store_count=1,
                dirty_bytes=size,
                allocation_cycle=cycle,
            )
        )
        self.stats.bump(self._h_allocate)
        return evicted

    def drain(self) -> List[MergeBufferEntry]:
        """Remove and return every entry (end-of-simulation flush)."""
        drained = self._entries
        self._entries = []
        if drained:
            self.stats.add("mb.drain", len(drained))
        return drained

    # ------------------------------------------------------------------
    # Load lookups (the per-load search itself is inlined in
    # BaseL1Interface._forwarding_lookups)
    # ------------------------------------------------------------------
    def charge_shared_page_lookup(self) -> None:
        """Charge the per-cycle shared page-id comparison of the split structure."""
        self.stats.bump(self._h_lookup_page_shared)
