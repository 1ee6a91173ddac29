"""A single L1 data-cache bank.

The L1 of the paper consists of four independent, single-ported, 4-way
set-associative banks; consecutive cache lines are interleaved across banks
so that a group of accesses to one page usually spreads over several banks
and can be serviced in the same cycle.

A bank exposes the two access modes of Sec. V:

* ``conventional`` — all four tag arrays and all four data arrays are read in
  parallel and the matching way's data is selected;
* ``reduced`` — the requester already knows the way (from a way table or a
  WDU) so the tag arrays are bypassed and exactly one data array is read.

The bank counts the array-level events (``tag_read``, ``data_read``,
``data_write`` …) that the energy model converts into joules, and tracks how
many ports were used each cycle so that the single-ported restriction can be
enforced by the interface models.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.set_assoc import SetAssociativeArray
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


class CacheBank:
    """One single-ported, set-associative L1 bank.

    Parameters
    ----------
    bank_index:
        Position of this bank in the L1 (0..banks-1); used only for stats
        naming and address reconstruction.
    layout:
        Shared address geometry.
    read_ports / write_ports:
        Number of read and write ports.  The MALEC and Base1ldst
        configurations use 1 read/write port; Base2ld1st adds one read port
        (Table I).  Port usage is tracked per cycle by the interface models.
    stats:
        Shared counters; events are prefixed with ``l1.``.
    restrict_way_allocation:
        When True, line fills avoid the "excluded" way of the 2-bit way-table
        encoding (Sec. V) so every resident line is representable by the WT.

    The bank's lines live in :attr:`array` (LRU).  :meth:`read_parts` and
    :meth:`write_parts` probe the bank and count the array events; misses
    are handled by :meth:`repro.cache.l1_cache.L1DataCache._miss`, which
    chooses the victim and fills the bank's slabs directly.
    """

    def __init__(
        self,
        bank_index: int,
        layout: AddressLayout = DEFAULT_LAYOUT,
        read_ports: int = 1,
        write_ports: int = 1,
        stats: Optional[StatCounters] = None,
        restrict_way_allocation: bool = False,
    ) -> None:
        if restrict_way_allocation and layout.l1_associativity == 1:
            raise ValueError("cannot exclude every way of a set")
        self.bank_index = bank_index
        self.layout = layout
        self.read_ports = read_ports
        self.write_ports = write_ports
        self.stats = stats if stats is not None else StatCounters()
        self.restrict_way_allocation = restrict_way_allocation
        self.array = SetAssociativeArray(
            num_sets=layout.l1_sets_per_bank, ways=layout.l1_associativity
        )
        # Per-access counters resolved to integer slots once (hot path).
        stats = self.stats
        self._h_eviction = stats.handle("l1.eviction")
        self._h_writeback = stats.handle("l1.writeback")
        self._h_ctrl = stats.handle("l1.ctrl")
        self._h_tag_read = stats.handle("l1.tag_read")
        self._h_data_read = stats.handle("l1.data_read")
        self._h_data_write = stats.handle("l1.data_write")
        self._h_tag_write = stats.handle("l1.tag_write")
        self._h_reduced_access = stats.handle("l1.reduced_access")
        self._h_conventional_access = stats.handle("l1.conventional_access")
        self._h_subblock_pair_read = stats.handle("l1.subblock_pair_read")
        self._h_way_hint_wrong = stats.handle("l1.way_hint_wrong")
        self._h_fill = stats.handle("l1.fill")
        # Fixed per-access counter patterns, flushed with one bump_many call.
        ways = layout.l1_associativity
        self._combo_conv_read = (
            (self._h_ctrl, 1),
            (self._h_tag_read, ways),
            (self._h_data_read, ways),
            (self._h_conventional_access, 1),
        )
        self._combo_reduced_read = (
            (self._h_ctrl, 1),
            (self._h_data_read, 1),
            (self._h_reduced_access, 1),
        )
        self._combo_conv_write = (
            (self._h_ctrl, 1),
            (self._h_tag_read, ways),
            (self._h_conventional_access, 1),
        )
        self._combo_reduced_write = (
            (self._h_ctrl, 1),
            (self._h_data_write, 1),
            (self._h_reduced_access, 1),
        )
        self._combo_fill = (
            (self._h_ctrl, 1),
            (self._h_fill, 1),
            (self._h_data_write, 1),
            (self._h_tag_write, 1),
        )

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def _parts(self, physical_address: int):
        """Field split of an address this bank owns (else ``ValueError``)."""
        parts = self.layout.decompose(physical_address)
        if parts.bank_index != self.bank_index:
            raise ValueError(
                f"address {physical_address:#x} belongs to bank "
                f"{parts.bank_index}, not {self.bank_index}"
            )
        return parts

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def read_parts(self, set_index: int, tag: int, way_hint: Optional[int]):
        """Service a load probe of a pre-decomposed address.

        ``way_hint`` is the way supplied by a way table or WDU; ``None`` means
        unknown and forces a conventional access.  The data arrays return two
        adjacent sub-blocks (the MALEC assumption that doubles merge
        opportunities), counted as ``l1.subblock_pair_read``.

        Returns ``(hit, way, reduced, way_hint_wrong)``.
        """
        stats = self.stats
        array = self.array
        base = set_index * array.ways
        slot = array._where.get(tag * array.num_sets + set_index)
        hint_wrong = False
        if way_hint is not None:
            # Reduced access: tag arrays bypassed, single data array read.
            stats.bump_many(self._combo_reduced_read)
            stats.bump(self._h_subblock_pair_read)
            if slot == base + way_hint:
                array._stamp[slot] = array._tick()
                return True, way_hint, True, False
            # A wrong hint requires a second, conventional access; way tables
            # never produce this (validity is tracked), but WDU-style
            # predictors might.
            stats.bump(self._h_way_hint_wrong)
            hint_wrong = True
        # Conventional access: all tag arrays and all data arrays probed.
        stats.bump_many(self._combo_conv_read)
        stats.bump(self._h_subblock_pair_read)
        if slot is None:
            return False, None, False, hint_wrong
        array._stamp[slot] = array._tick()
        return True, slot - base, False, hint_wrong

    def write_parts(self, set_index: int, tag: int, way_hint: Optional[int]):
        """Service a store (or merge-buffer eviction) that writes the cache.

        Stores always need to know the correct way before writing; without a
        hint the tag arrays are probed first, with a valid hint the probe is
        skipped (reduced store).  Returns ``(hit, way, reduced)``.
        """
        stats = self.stats
        array = self.array
        base = set_index * array.ways
        slot = array._where.get(tag * array.num_sets + set_index)
        if way_hint is not None:
            if slot == base + way_hint:
                stats.bump_many(self._combo_reduced_write)
                array._dirty[slot] = 1
                array._stamp[slot] = array._tick()
                return True, way_hint, True
            stats.bump(self._h_way_hint_wrong)

        stats.bump_many(self._combo_conv_write)
        if slot is None:
            return False, None, False
        stats.bump(self._h_data_write, 1)
        array._dirty[slot] = 1
        array._stamp[slot] = array._tick()
        return True, slot - base, False

    def way_of(self, physical_address: int) -> Optional[int]:
        """Way currently holding ``physical_address`` or ``None``."""
        parts = self._parts(physical_address)
        return self.array.probe(parts.set_index, parts.tag)

    def contains(self, physical_address: int) -> bool:
        """True if the line holding ``physical_address`` is resident."""
        return self.way_of(physical_address) is not None

    def occupancy(self) -> int:
        """Number of valid lines in this bank."""
        return self.array.occupancy()
