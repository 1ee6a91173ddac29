"""Fully-associative TLB and micro-TLB with reverse (physical) lookups.

Sec. V of the paper requires the uTLB and TLB to be searchable by physical
page id as well as by virtual page id, because the cache performs line fills
and evictions with physical tags and the way tables attached to each TLB
level must be located from those physical addresses.  The energy methodology
(Sec. VI-A) therefore treats each TLB as *two* fully-associative tag arrays
(a virtual one and a physical one) in front of the shared WT data array;
this module counts the corresponding events separately.

Replacement follows the paper: second chance for the uTLB (to limit the
number of full uWT→WT entry transfers) and random for the TLB.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cache.replacement import make_replacement_policy
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.page_table import PageTable


class TranslationResult:
    """Outcome of a full address translation through the TLB hierarchy."""

    __slots__ = (
        "virtual_page",
        "physical_page",
        "physical_address",
        "utlb_hit",
        "tlb_hit",
        "latency",
    )

    def __init__(
        self,
        virtual_page: int,
        physical_page: int,
        physical_address: int,
        utlb_hit: bool,
        tlb_hit: bool,
        latency: int,
    ) -> None:
        self.virtual_page = virtual_page
        self.physical_page = physical_page
        self.physical_address = physical_address
        self.utlb_hit = utlb_hit
        self.tlb_hit = tlb_hit
        self.latency = latency


class TLB:
    """A fully-associative translation buffer of ``entries`` slots.

    The class is used for both the 64-entry main TLB and the 16-entry uTLB
    (Table II); only the size and the replacement policy differ.  Way tables
    index their entries by TLB slot, so the slot index is part of every
    lookup result.

    Slot state lives in flat slabs indexed by slot — ``_vpage``, ``_ppage``
    and ``_valid`` — next to the replacement policy's own per-slot state
    (the second-chance reference bits, or the random policy's RNG).  The
    ``_by_vpage`` / ``_by_ppage`` dicts index the valid slots both ways.
    """

    def __init__(
        self,
        entries: int,
        name: str = "tlb",
        replacement: str = "random",
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
        seed: int = 0,
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
        self._policy = make_replacement_policy(replacement, entries, seed=seed)
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
        self._policy.touch(slot)
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
        eviction) and marks the slot used for the replacement policy."""
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
        self._policy.touch(slot)
        values[self._h_fill] += 1
        live[self._h_fill] = True
        return old_ppage

    def insert(self, virtual_page: int, physical_page: int) -> int:
        """Install a translation and return the slot index used.

        If the virtual page is already resident its slot is refreshed;
        otherwise a victim chosen by the replacement policy is overwritten.
        Way tables are kept in step by :meth:`TLBHierarchy.refill`, not here.
        """
        existing = self._by_vpage.get(virtual_page)
        if existing is not None:
            old_ppage = self._ppage[existing]
            if old_ppage != physical_page:
                self._by_ppage.pop(old_ppage, None)
                self._ppage[existing] = physical_page
                self._by_ppage[physical_page] = existing
            self._policy.touch(existing)
            return existing
        if self._valid_count >= self.entries:
            slot = self._policy.victim_full()
        else:
            slot = self._policy.victim(self._valid)
        self._install(slot, virtual_page, physical_page)
        return slot

    def invalidate_all(self) -> None:
        """Drop every translation (used for context switches)."""
        self._valid[:] = bytes(self.entries)
        self._by_vpage.clear()
        self._by_ppage.clear()
        self._valid_count = 0


class TLBHierarchy:
    """uTLB + TLB + page table, the translation path of Fig. 2a.

    Parameters follow Table II: a 16-entry uTLB with second-chance
    replacement in front of a 64-entry TLB with random replacement.  A uTLB
    miss that hits in the TLB refills the uTLB; a TLB miss walks the page
    table (``walk_latency`` cycles) and refills both levels.
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
        self.utlb = TLB(
            utlb_entries,
            name="utlb",
            replacement="second_chance",
            layout=layout,
            stats=self.stats,
            seed=seed,
        )
        self.tlb = TLB(
            tlb_entries,
            name="tlb",
            replacement="random",
            layout=layout,
            stats=self.stats,
            seed=seed + 1,
        )
        self._h_walk = self.stats.handle("tlb.walk")
        self._page_shift = layout.page_offset_bits
        # Replacement state the refill drives directly.
        self._utlb_policy = self.utlb._policy
        self._utlb_referenced = self.utlb._policy._referenced
        self._tlb_rng = self.tlb._policy._rng
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
        to the WT and loads the incoming page's WT entry.  The victim choices
        draw exactly what :meth:`RandomReplacement.victim_full` and
        :meth:`SecondChanceReplacement.victim_full` would.
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
            # (A TLB hit needs no replacement update: the random policy
            # keeps no use state.)
            for handle, amount in tlb._combo_hit:
                values[handle] += amount
                live[handle] = True
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
                tlb_slot = tlb._policy.victim(tlb._valid)
            replaced = tlb._install(tlb_slot, virtual_page, physical_page)
            if self.way_tables is not None:
                self.way_tables.tlb_slot_replaced(tlb_slot, replaced is not None)
            latency = self.walk_latency
        if utlb._valid_count >= utlb.entries:
            # Second-chance sweep: the hand clears each set reference bit it
            # passes and stops at the first clear one (within one turn).
            referenced = self._utlb_referenced
            entries = utlb.entries
            hand = self._utlb_policy._hand
            while True:
                slot = hand
                hand = (hand + 1) % entries
                if not referenced[slot]:
                    break
                referenced[slot] = False
            self._utlb_policy._hand = hand
        else:
            slot = utlb._policy.victim(utlb._valid)
        old_ppage = utlb._install(slot, virtual_page, physical_page)
        if self.way_tables is not None:
            self.way_tables.utlb_slot_replaced(slot, old_ppage, virtual_page)
        return physical_page, latency

    def translate(self, virtual_address: int) -> TranslationResult:
        """Translate ``virtual_address``; refills uTLB/TLB as needed.

        The returned latency is the *additional* translation latency beyond
        the pipelined uTLB access: 0 for a uTLB hit, 1 cycle for a TLB hit,
        ``walk_latency`` cycles for a page walk.
        """
        parts = self.layout.decompose(virtual_address)
        vpage = parts.page_id
        utlb = self.utlb
        slot = utlb._by_vpage.get(vpage)
        if slot is not None:
            self.stats.bump_many(utlb._combo_hit)
            utlb._policy.touch(slot)
            ppage, latency = utlb._ppage[slot], 0
            utlb_hit = tlb_hit = True
        else:
            utlb_hit = False
            tlb_hit = vpage in self.tlb._by_vpage
            ppage, latency = self.refill(vpage)
        return TranslationResult(
            virtual_page=vpage,
            physical_page=ppage,
            physical_address=(ppage << self._page_shift) | parts.page_offset,
            utlb_hit=utlb_hit,
            tlb_hit=tlb_hit,
            latency=latency,
        )

    def translate_pair(self, virtual_address: int):
        """Translate, returning only ``(physical_address, latency)``.

        Identical state changes and statistics to :meth:`translate`, without
        the :class:`TranslationResult` allocation — the per-load path of the
        interface models only consumes these two fields.
        """
        parts = self.layout.decompose(virtual_address)
        ppage, latency = self.translate_page_pair(parts.page_id)
        return ((ppage << self._page_shift) | parts.page_offset, latency)

    def translate_page_pair(self, virtual_page: int):
        """Translate a bare page id, returning ``(physical_page, latency)``.

        The MALEC interface translates once per page group and only needs
        the physical page id and the added latency.
        """
        utlb = self.utlb
        slot = utlb._by_vpage.get(virtual_page)
        if slot is not None:
            self.stats.bump_many(utlb._combo_hit)
            utlb._policy.touch(slot)
            return (utlb._ppage[slot], 0)
        return self.refill(virtual_page)

    def translate_probe(self, virtual_address: int) -> None:
        """Perform a translation purely for its side effects.

        Identical state changes and statistics to :meth:`translate` (uTLB/TLB
        refills, walks, counters) without building a
        :class:`TranslationResult`.  The baselines use this for stores, whose
        translation result is discarded.
        """
        self.translate_page_pair(self.layout.decompose(virtual_address).page_id)

    def translate_page(self, virtual_page: int) -> TranslationResult:
        """Translate a bare virtual page id (offset 0)."""
        return self.translate(self.layout.compose(virtual_page, 0))
