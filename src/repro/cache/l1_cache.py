"""Banked L1 data cache.

The L1 data cache of Table II: 32 KByte, 4-way set-associative, 64-byte
lines, physically indexed / physically tagged, four independent single-ported
banks with 128-bit sub-blocked data arrays, 2-cycle access latency (1- and
3-cycle variants are explored in Sec. VI).

The cache itself is deliberately unmodified by MALEC ("to allow the re-use of
existing, highly optimized designs"); the interface in front of it decides
which accesses reach which bank in a given cycle and whether they carry way
hints.  Misses are serviced by the L2/DRAM hierarchy; line fills and
evictions update the attached way tables (or WDU) so they keep their
validity bits coherent, exactly as Sec. V requires.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.cache_bank import CacheBank
from repro.cache.l2_cache import L2Cache
from repro.cache.set_assoc import NEVER_VICTIM
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


class L1DataCache:
    """Four-bank L1 data cache with miss handling and way-determination upkeep.

    Every miss — load, store or merge-buffer write-back — runs through
    :meth:`_miss`: the L2 access (with its DRAM read and dirty write-back),
    the LRU victim choice honouring the 2-bit way-table exclusion, the
    eviction and fill bookkeeping on the bank's slabs, and the way-table or
    WDU update for both lines.  Way determination is attached with
    :meth:`repro.core.way_table.WayTableHierarchy.attach_to_cache` or
    :meth:`repro.core.wdu.WayDeterminationUnit.attach_to_cache`.
    """

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        hit_latency: int = 2,
        read_ports_per_bank: int = 1,
        write_ports_per_bank: int = 1,
        restrict_way_allocation: bool = False,
        l2: Optional[L2Cache] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.layout = layout
        self.hit_latency = hit_latency
        self.stats = stats if stats is not None else StatCounters()
        self.l2 = l2 if l2 is not None else L2Cache(layout=layout, stats=self.stats)
        #: way-determination structures kept coherent on fills and evictions
        self.way_tables = None
        self.wdu = None
        self.banks: List[CacheBank] = [
            CacheBank(
                bank_index=index,
                layout=layout,
                read_ports=read_ports_per_bank,
                write_ports=write_ports_per_bank,
                stats=self.stats,
                restrict_way_allocation=restrict_way_allocation,
            )
            for index in range(layout.l1_banks)
        ]
        # Per-access counters resolved to integer slots once (hot path).
        self._h_load = self.stats.handle("l1.load")
        self._h_load_hit = self.stats.handle("l1.load_hit")
        self._h_load_miss = self.stats.handle("l1.load_miss")
        self._h_store = self.stats.handle("l1.store")
        self._h_store_hit = self.stats.handle("l1.store_hit")
        self._h_store_miss = self.stats.handle("l1.store_miss")
        self._h_data_write = self.stats.handle("l1.data_write")
        self._combo_load_hit = ((self._h_load, 1), (self._h_load_hit, 1))
        self._combo_load_miss = ((self._h_load, 1), (self._h_load_miss, 1))
        self._combo_store_hit = ((self._h_store, 1), (self._h_store_hit, 1))
        self._combo_store_miss = ((self._h_store, 1), (self._h_store_miss, 1))
        bank0 = self.banks[0]
        self._h_eviction = bank0._h_eviction
        self._h_writeback = bank0._h_writeback
        self._combo_fill = bank0._combo_fill
        self._split = (
            layout.line_offset_bits,
            layout._bank_mask,
            layout._set_shift,
            layout._set_mask,
            layout._tag_shift,
        )

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def bank_for(self, physical_address: int) -> CacheBank:
        """Bank that owns ``physical_address``."""
        return self.banks[self.layout.decompose(physical_address).bank_index]

    def load_parts(self, physical_address: int, way_hint: Optional[int] = None):
        """Service a load, handling the miss path through L2/DRAM.

        Returns ``(hit, way, latency, reduced, bank_index, way_hint_wrong)``;
        ``latency`` includes the L2/DRAM time of a miss and ``way`` is the
        filled way on a miss.
        """
        if not 0 <= physical_address <= self.layout.max_address:
            self.layout.check(physical_address)
        line_shift, bank_mask, set_shift, set_mask, tag_shift = self._split
        bank_index = (physical_address >> line_shift) & bank_mask
        set_index = (physical_address >> set_shift) & set_mask
        tag = physical_address >> tag_shift
        bank = self.banks[bank_index]
        hit, way, reduced, hint_wrong = bank.read_parts(set_index, tag, way_hint)
        if hit:
            self.stats.bump_many(self._combo_load_hit)
            return True, way, self.hit_latency, reduced, bank_index, hint_wrong

        self.stats.bump_many(self._combo_load_miss)
        way, miss_latency = self._miss(bank, set_index, tag, physical_address, False)
        return False, way, self.hit_latency + miss_latency, False, bank_index, hint_wrong

    def store_parts(self, physical_address: int, way_hint: Optional[int] = None):
        """Service a store (write-allocate, write-back).

        Returns ``(hit, way, latency, reduced, bank_index)``.
        """
        if not 0 <= physical_address <= self.layout.max_address:
            self.layout.check(physical_address)
        line_shift, bank_mask, set_shift, set_mask, tag_shift = self._split
        bank_index = (physical_address >> line_shift) & bank_mask
        set_index = (physical_address >> set_shift) & set_mask
        tag = physical_address >> tag_shift
        bank = self.banks[bank_index]
        hit, way, reduced = bank.write_parts(set_index, tag, way_hint)
        if hit:
            self.stats.bump_many(self._combo_store_hit)
            return True, way, self.hit_latency, reduced, bank_index

        self.stats.bump_many(self._combo_store_miss)
        way, miss_latency = self._miss(bank, set_index, tag, physical_address, True)
        self.stats.bump(self._h_data_write, 1)
        return False, way, self.hit_latency + miss_latency, False, bank_index

    def _miss(
        self,
        bank: CacheBank,
        set_index: int,
        tag: int,
        physical_address: int,
        dirty: bool,
    ):
        """Service an L1 miss after the bank probe; returns ``(way, latency)``.

        In order: fetch the line through the L2 (and DRAM on an L2 miss);
        choose the LRU victim of the set, avoiding the line's excluded way
        when the 2-bit way-table encoding is in force; evict it (counters,
        way-table/WDU invalidation); install the new line in the bank's
        slabs (counters, way-table/WDU update); finally write a dirty victim
        back to the L2.
        """
        l2 = self.l2
        miss_latency = l2.access(physical_address, False)
        layout = self.layout
        array = bank.array
        ways = array.ways
        base = set_index * ways
        # Victim: the smallest LRU stamp of the set.  Never-used ways carry
        # the smallest stamps (see repro.cache.set_assoc), so this is the
        # LRU invalid way, else the LRU way.  Under the 2-bit way-table
        # encoding (Sec. V) lines 0..3 of a page cannot name way 0, lines
        # 4..7 way 1, and so on: that excluded way is masked first.
        recency = array._stamp[base : base + ways]
        if bank.restrict_way_allocation:
            line_in_page = (physical_address >> layout.line_offset_bits) & layout._line_in_page_mask
            recency[(line_in_page >> layout.bank_bits) % ways] = NEVER_VICTIM
        way = recency.index(min(recency))
        slot = base + way
        # The miss paths bump the StatCounters slabs in place, like the
        # kernels' batched flush: a bump call per event costs ~10% of a
        # miss-heavy run.
        values = self.stats._values
        live = self.stats._live
        valid = array._valid
        evicted_address = None
        evicted_dirty = False
        if valid[slot]:
            key = array._tags[slot] * array.num_sets + set_index
            del array._where[key]
            evicted_address = (
                (key << layout.bank_bits) | bank.bank_index
            ) << layout.line_offset_bits
            values[self._h_eviction] += 1
            live[self._h_eviction] = True
            evicted_dirty = array._dirty[slot]
            if evicted_dirty:
                values[self._h_writeback] += 1
                live[self._h_writeback] = True
            if self.way_tables is not None:
                self.way_tables.on_line_evict(evicted_address, way)
            if self.wdu is not None:
                self.wdu.on_line_evict(evicted_address, way)
        valid[slot] = 1
        array._tags[slot] = tag
        array._dirty[slot] = dirty
        array._stamp[slot] = array._tick()
        array._where[tag * array.num_sets + set_index] = slot
        for handle, amount in self._combo_fill:
            values[handle] += amount
            live[handle] = True
        line_address = physical_address & ~layout._line_offset_mask
        if self.way_tables is not None:
            self.way_tables.on_line_fill(line_address, way)
        if self.wdu is not None:
            self.wdu.on_line_fill(line_address, way)
        if evicted_dirty:
            l2.access(evicted_address, True)
        return way, miss_latency

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains(self, physical_address: int) -> bool:
        """True if the line is resident in the L1."""
        return self.bank_for(physical_address).contains(physical_address)

    def way_of(self, physical_address: int) -> Optional[int]:
        """Way currently holding the line, or ``None``."""
        return self.bank_for(physical_address).way_of(physical_address)

    def occupancy(self) -> int:
        """Number of valid lines across all banks."""
        return sum(bank.occupancy() for bank in self.banks)

    @property
    def load_miss_rate(self) -> float:
        """Fraction of loads that missed so far."""
        return self.stats.ratio("l1.load_miss", "l1.load")

    @property
    def miss_rate(self) -> float:
        """Fraction of all L1 accesses (loads and stores) that missed so far."""
        misses = self.stats.total("l1.load_miss", "l1.store_miss")
        accesses = self.stats.total("l1.load", "l1.store")
        return misses / accesses if accesses else 0.0
