"""Fully-associative TLB and micro-TLB with reverse (physical) lookups.

Sec. V of the paper requires the uTLB and TLB to be searchable by physical
page id as well as by virtual page id, because the cache performs line fills
and evictions with physical tags and the way tables attached to each TLB
level must be located from those physical addresses.  The energy methodology
(Sec. VI-A) therefore treats each TLB as *two* fully-associative tag arrays
(a virtual one and a physical one) in front of the shared WT data array;
this module counts the corresponding events separately.

Replacement follows the paper (Sec. V, Table II): second chance for the
uTLB, to limit the number of full uWT→WT entry transfers, and random for the
TLB.  Both victim choices live in :meth:`TLBHierarchy.refill`, the only
place a translation is installed.
"""

from __future__ import annotations

import random
from itertools import filterfalse
from typing import List, Optional, Tuple

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.page_table import PageTable


class TLB:
    """A fully-associative translation buffer of ``entries`` slots.

    The class is used for both the 64-entry main TLB and the 16-entry uTLB
    (Table II); only the size differs here, the replacement policy is the
    hierarchy's (:meth:`TLBHierarchy.refill`).  Way tables index their
    entries by TLB slot, so the slot index is part of every lookup result.

    Slot state lives in flat slabs indexed by slot: ``_vpage``, ``_ppage``,
    ``_valid`` and ``_referenced``, the reference bit set on every lookup
    hit and install (the uTLB's second-chance sweep reads and clears it; the
    random TLB never reads it).  The ``_by_vpage`` / ``_by_ppage`` dicts
    index the valid slots both ways.
    """

    def __init__(
        self,
        entries: int,
        name: str = "tlb",
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError("a TLB needs at least one entry")
        self.name = name
        self.layout = layout
        self.entries = entries
        self.stats = stats if stats is not None else StatCounters()
        self._vpage: List[int] = [0] * entries
        self._ppage: List[int] = [0] * entries
        self._valid = bytearray(entries)
        self._referenced = bytearray(entries)
        self._by_vpage: dict = {}
        self._by_ppage: dict = {}
        self._valid_count = 0
        # Per-access counters resolved to integer slots once (hot path); the
        # f-string name construction otherwise runs on every lookup.
        self._h_lookup = self.stats.handle(f"{name}.lookup")
        self._h_miss = self.stats.handle(f"{name}.miss")
        self._h_hit = self.stats.handle(f"{name}.hit")
        self._h_reverse_lookup = self.stats.handle(f"{name}.reverse_lookup")
        self._h_reverse_miss = self.stats.handle(f"{name}.reverse_miss")
        self._h_reverse_hit = self.stats.handle(f"{name}.reverse_hit")
        self._h_eviction = self.stats.handle(f"{name}.eviction")
        self._h_fill = self.stats.handle(f"{name}.fill")
        # Fixed per-lookup counter patterns, flushed with one bump_many call.
        self._combo_hit = ((self._h_lookup, 1), (self._h_hit, 1))
        self._combo_miss = ((self._h_lookup, 1), (self._h_miss, 1))

    # ------------------------------------------------------------------
    # Slot accessors
    # ------------------------------------------------------------------
    def virtual_page(self, slot: int) -> Optional[int]:
        """Virtual page held by ``slot`` (``None`` when invalid)."""
        return self._vpage[slot] if self._valid[slot] else None

    def physical_page(self, slot: int) -> Optional[int]:
        """Physical page held by ``slot`` (``None`` when invalid)."""
        return self._ppage[slot] if self._valid[slot] else None

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, virtual_page: int, count_event: bool = True) -> Optional[int]:
        """Return the slot index holding ``virtual_page`` or ``None``.

        ``count_event`` distinguishes real (energy-consuming) lookups from
        bookkeeping probes issued by the model itself.
        """
        slot = self._by_vpage.get(virtual_page)
        if slot is None:
            if count_event:
                self.stats.bump_many(self._combo_miss)
            return None
        if count_event:
            self.stats.bump_many(self._combo_hit)
        self._referenced[slot] = 1
        return slot

    def reverse_lookup(self, physical_page: int, count_event: bool = True) -> Optional[int]:
        """Slot index holding the translation *to* ``physical_page`` (or ``None``).

        Used on cache line fills/evictions, which know only physical tags.
        """
        if count_event:
            self.stats.bump(self._h_reverse_lookup)
        slot = self._by_ppage.get(physical_page)
        if slot is None:
            if count_event:
                self.stats.bump(self._h_reverse_miss)
            return None
        if count_event:
            self.stats.bump(self._h_reverse_hit)
        return slot

    def translation(self, virtual_page: int) -> Optional[int]:
        """Physical page for ``virtual_page`` if resident (no event counted)."""
        slot = self._by_vpage.get(virtual_page)
        if slot is None:
            return None
        return self._ppage[slot]

    @property
    def occupancy(self) -> int:
        """Number of valid translations currently held."""
        return self._valid_count

    def resident_virtual_pages(self) -> List[int]:
        """Virtual pages currently covered (helper for invariants)."""
        return sorted(self._by_vpage)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _install(self, slot: int, virtual_page: int, physical_page: int):
        """Write a translation into ``slot``; returns the physical page it
        replaced (``None`` if the slot was empty).  Counts the fill (and the
        eviction) and sets the slot's reference bit."""
        old_ppage = None
        values = self.stats._values
        live = self.stats._live
        if self._valid[slot]:
            old_ppage = self._ppage[slot]
            values[self._h_eviction] += 1
            live[self._h_eviction] = True
            self._by_vpage.pop(self._vpage[slot], None)
            self._by_ppage.pop(old_ppage, None)
        else:
            self._valid[slot] = 1
            self._valid_count += 1
        self._vpage[slot] = virtual_page
        self._ppage[slot] = physical_page
        self._by_vpage[virtual_page] = slot
        self._by_ppage[physical_page] = slot
        self._referenced[slot] = 1
        values[self._h_fill] += 1
        live[self._h_fill] = True
        return old_ppage


class TLBHierarchy:
    """uTLB + TLB + page table, the translation path of Fig. 2a.

    Parameters follow Table II: a 16-entry uTLB with second-chance
    replacement in front of a 64-entry TLB with random replacement.  A uTLB
    miss that hits in the TLB refills the uTLB; a TLB miss walks the page
    table (``walk_latency`` cycles) and refills both levels.

    The replacement state the two policies need beyond the TLBs' reference
    bits lives here: the uTLB's clock hand and the TLB's private RNG
    (``random.Random(seed + 1)``).
    """

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        utlb_entries: int = 16,
        tlb_entries: int = 64,
        walk_latency: int = 30,
        page_table: Optional[PageTable] = None,
        stats: Optional[StatCounters] = None,
        seed: int = 0,
    ) -> None:
        self.layout = layout
        self.walk_latency = walk_latency
        self.stats = stats if stats is not None else StatCounters()
        self.page_table = page_table if page_table is not None else PageTable(
            layout=layout, seed=seed, stats=self.stats
        )
        self.utlb = TLB(utlb_entries, name="utlb", layout=layout, stats=self.stats)
        self.tlb = TLB(tlb_entries, name="tlb", layout=layout, stats=self.stats)
        self._h_walk = self.stats.handle("tlb.walk")
        self._page_shift = layout.page_offset_bits
        #: second-chance clock hand of the uTLB (next slot the sweep visits)
        self._utlb_hand = 0
        self._tlb_rng = random.Random(seed + 1)
        self._tlb_slots = range(tlb_entries)
        #: way tables kept in step with slot replacements (set by
        #: :class:`repro.core.way_table.WayTableHierarchy`)
        self.way_tables = None

    def refill(self, virtual_page: int) -> Tuple[int, int]:
        """Service a uTLB miss; returns ``(physical_page, latency)``.

        One pass: count the uTLB miss; look the page up in the TLB (1 cycle)
        or walk the page table (``walk_latency`` cycles) and install it over
        the TLB's random victim; install it over the uTLB's second-chance
        victim.  With way tables attached, each recycled slot updates them:
        a TLB slot clears its WT entry, a uTLB slot writes its uWT entry back
        to the WT and loads the incoming page's WT entry.

        Victims: while a level has invalid slots, the uTLB takes the lowest
        invalid slot and the TLB draws ``rng.choice`` over its invalid slots
        in index order.  A full TLB draws over all slots; a full uTLB runs
        the second-chance sweep.
        """
        values = self.stats._values
        live = self.stats._live
        utlb = self.utlb
        tlb = self.tlb
        for handle, amount in utlb._combo_miss:
            values[handle] += amount
            live[handle] = True
        tlb_slot = tlb._by_vpage.get(virtual_page)
        if tlb_slot is not None:
            for handle, amount in tlb._combo_hit:
                values[handle] += amount
                live[handle] = True
            tlb._referenced[tlb_slot] = 1
            physical_page = tlb._ppage[tlb_slot]
            latency = 1
        else:
            for handle, amount in tlb._combo_miss:
                values[handle] += amount
                live[handle] = True
            physical_page = self.page_table.translate_page(virtual_page)
            values[self._h_walk] += 1
            live[self._h_walk] = True
            if tlb._valid_count >= tlb.entries:
                tlb_slot = self._tlb_rng.choice(self._tlb_slots)
            else:
                tlb_slot = self._tlb_rng.choice(
                    list(filterfalse(tlb._valid.__getitem__, self._tlb_slots))
                )
            replaced = tlb._install(tlb_slot, virtual_page, physical_page)
            if self.way_tables is not None:
                self.way_tables.tlb_slot_replaced(tlb_slot, replaced is not None)
            latency = self.walk_latency
        if utlb._valid_count >= utlb.entries:
            # Second-chance sweep: the hand clears each set reference bit it
            # passes and stops at the first clear one (within one turn).
            referenced = utlb._referenced
            entries = utlb.entries
            hand = self._utlb_hand
            while True:
                slot = hand
                hand = (hand + 1) % entries
                if not referenced[slot]:
                    break
                referenced[slot] = 0
            self._utlb_hand = hand
        else:
            slot = utlb._valid.index(0)
        old_ppage = utlb._install(slot, virtual_page, physical_page)
        if self.way_tables is not None:
            self.way_tables.utlb_slot_replaced(slot, old_ppage, virtual_page)
        return physical_page, latency

    def translate_pair(self, virtual_address: int):
        """Translate an address; returns ``(physical_address, latency)``.

        The latency is the *additional* translation latency beyond the
        pipelined uTLB access: 0 for a uTLB hit, 1 cycle for a TLB hit,
        ``walk_latency`` cycles for a page walk.  uTLB/TLB refills, walks
        and counters happen as for any translation.
        """
        parts = self.layout.decompose(virtual_address)
        ppage, latency = self.translate_page_pair(parts.page_id)
        return ((ppage << self._page_shift) | parts.page_offset, latency)

    def translate_page_pair(self, virtual_page: int):
        """Translate a bare page id; returns ``(physical_page, latency)``,
        the latency as for :meth:`translate_pair`.

        The MALEC interface translates once per page group and only needs
        the physical page id and the added latency.
        """
        utlb = self.utlb
        slot = utlb._by_vpage.get(virtual_page)
        if slot is not None:
            self.stats.bump_many(utlb._combo_hit)
            utlb._referenced[slot] = 1
            return (utlb._ppage[slot], 0)
        return self.refill(virtual_page)
