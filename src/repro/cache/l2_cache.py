"""Unified L2 cache model.

Table II configures a 1 MByte, 16-way set-associative L2 with a 12-cycle
access latency.  The paper excludes the L2 from the energy accounting (MALEC
changes the *timing* of L2 accesses but not their number), so this model only
needs to provide hit/miss behaviour and latency, and to count accesses so the
invariance of L2 traffic across interfaces can be verified.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.set_assoc import SetAssociativeArray
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.memory.dram import DRAMModel
from repro.stats import StatCounters


class L2Cache:
    """Single-array unified L2 backed by a DRAM model.

    Parameters
    ----------
    capacity_bytes / associativity / latency_cycles:
        Table II values by default (1 MByte, 16-way, 12 cycles).
    dram:
        Backing store; a default :class:`~repro.memory.dram.DRAMModel` is
        created when omitted.
    """

    def __init__(
        self,
        capacity_bytes: int = 1024 * 1024,
        associativity: int = 16,
        latency_cycles: int = 12,
        layout: AddressLayout = DEFAULT_LAYOUT,
        dram: Optional[DRAMModel] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if capacity_bytes % (associativity * layout.line_bytes):
            raise ValueError("L2 capacity must divide into ways and lines")
        self.layout = layout
        self.latency_cycles = latency_cycles
        self.stats = stats if stats is not None else StatCounters()
        self.dram = dram if dram is not None else DRAMModel(layout=layout, stats=self.stats)
        self.num_sets = capacity_bytes // (associativity * layout.line_bytes)
        self.associativity = associativity
        self.array = SetAssociativeArray(num_sets=self.num_sets, ways=associativity)
        # Per-access counters resolved to integer slots once (hot path).
        self._h_access = self.stats.handle("l2.access")
        self._h_hit = self.stats.handle("l2.hit")
        self._h_miss = self.stats.handle("l2.miss")
        self._h_writeback = self.stats.handle("l2.writeback")
        # Fixed per-access counter patterns.
        self._combo_hit = ((self._h_access, 1), (self._h_hit, 1))
        self._combo_miss = ((self._h_access, 1), (self._h_miss, 1))
        self._line_shift = layout.line_offset_bits

    # ------------------------------------------------------------------
    def access(self, physical_address: int, is_write: bool = False) -> int:
        """Access the L2 for a line; returns the total latency in cycles.

        On a miss the line is fetched from DRAM and installed over the set's
        LRU victim (the smallest stamp, see :mod:`repro.cache.set_assoc`); a
        dirty victim is written back to DRAM under its own address (counted,
        latency not added — write-backs are off the critical path).
        Allocation-free: the L1 miss path calls this once per L1 miss and
        once per dirty L1 victim.
        """
        if not 0 <= physical_address <= self.layout.max_address:
            self.layout.check(physical_address)
        line = physical_address >> self._line_shift
        array = self.array
        slot = array._where.get(line)
        values = self.stats._values
        live = self.stats._live
        for handle, amount in self._combo_miss if slot is None else self._combo_hit:
            values[handle] += amount
            live[handle] = True
        if slot is not None:
            array._stamp[slot] = array._tick()
            if is_write:
                array._dirty[slot] = 1
            return self.latency_cycles

        dram_latency = self.dram.read(physical_address)
        num_sets = self.num_sets
        set_index = line % num_sets
        base = set_index * array.ways
        recency = array._stamp[base : base + array.ways]
        slot = base + recency.index(min(recency))
        evicted_line = None
        if array._valid[slot]:
            evicted_line = array._tags[slot] * num_sets + set_index
            del array._where[evicted_line]
            if not array._dirty[slot]:
                evicted_line = None
        else:
            array._valid[slot] = 1
        array._tags[slot] = line // num_sets
        array._dirty[slot] = is_write
        array._stamp[slot] = array._tick()
        array._where[line] = slot
        if evicted_line is not None:
            values[self._h_writeback] += 1
            live[self._h_writeback] = True
            self.dram.write(evicted_line << self._line_shift)
        return self.latency_cycles + dram_latency

    def contains(self, physical_address: int) -> bool:
        """True when the line is resident in the L2."""
        line = self.layout.line_number(physical_address)
        return self.array.probe(line % self.num_sets, line // self.num_sets) is not None

    @property
    def miss_rate(self) -> float:
        """Fraction of L2 accesses that missed so far."""
        return self.stats.ratio("l2.miss", "l2.access")
