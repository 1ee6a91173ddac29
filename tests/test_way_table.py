"""Tests for Page-Based Way Determination (way tables) and the WDU baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.l1_cache import L1DataCache
from repro.core.way_table import WayTableEntry, WayTableHierarchy
from repro.core.wdu import WayDeterminationUnit
from repro.memory.address import DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

layout = DEFAULT_LAYOUT


def addr(page: int, line: int, offset: int = 0) -> int:
    return layout.compose_line(page, line, offset)


def excluded_way(line_in_page: int) -> int:
    """Sec. V: lines 0..3 exclude way 0, lines 4..7 way 1, ... (4 banks, 4 ways)."""
    return (line_in_page // layout.l1_banks) % layout.l1_associativity


class TestWayTableEntry:
    def test_initially_unknown(self):
        entry = WayTableEntry()
        for line in range(layout.lines_per_page):
            assert entry.way_of(line) is None

    def test_update_and_way_of(self):
        entry = WayTableEntry()
        assert entry.update(5, way=3)
        assert entry.way_of(5) == 3

    def test_excluded_way_cannot_be_encoded(self):
        entry = WayTableEntry()
        # Line 4 excludes way 1 (Sec. V); recording it leaves "unknown".
        assert entry.update(4, way=2)
        assert not entry.update(4, way=1)
        assert entry.way_of(4) is None

    def test_clear(self):
        entry = WayTableEntry()
        entry.update(7, way=2)
        entry.update(9, way=3)
        entry.clear()
        assert all(entry.way_of(line) is None for line in range(layout.lines_per_page))

    def test_copy_from(self):
        a, b = WayTableEntry(), WayTableEntry()
        a.update(1, way=2)
        b.copy_from(a)
        assert b.way_of(1) == 2

    def test_storage_bits_match_paper(self):
        entry = WayTableEntry()
        assert entry.storage_bits == 128     # packed 2-bit format (Fig. 3)
        assert entry.naive_storage_bits == 192  # separate valid + way bits
        assert entry.storage_bits == entry.naive_storage_bits * 2 // 3

    def test_bad_line_or_way_rejected(self):
        entry = WayTableEntry()
        with pytest.raises(ValueError):
            entry.update(-1, 0)
        with pytest.raises(ValueError):
            entry.update(64, 0)
        with pytest.raises(ValueError):
            entry.update(0, 4)

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200)
    def test_roundtrip_or_unknown(self, line, way):
        """Any (line, way) either round-trips exactly or reports unknown."""
        entry = WayTableEntry()
        encoded = entry.update(line, way)
        if encoded:
            assert entry.way_of(line) == way
        else:
            assert way == excluded_way(line)
            assert entry.way_of(line) is None


class TestWayTableHierarchy:
    def _system(self, feedback=True, **tlb):
        stats = StatCounters()
        translation = TLBHierarchy(stats=stats, **tlb)
        l1 = L1DataCache(stats=stats, restrict_way_allocation=True)
        tables = WayTableHierarchy(translation, stats=stats, enable_feedback_update=feedback)
        tables.attach_to_cache(l1)
        return stats, translation, l1, tables

    @staticmethod
    def _way(tables, paddr, vpage):
        """The tables' way for ``paddr`` (its page translated this cycle)."""
        return tables.predict_page(vpage).way_of(layout.line_in_page(paddr))

    def test_fill_updates_way_information(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(5, 0))
        way = l1.load_parts(paddr)[1]  # miss + fill -> tables learn the way
        assert self._way(tables, paddr, 5) == way
        assert stats["uwt.read"] == 1

    def test_on_line_fill_and_evict(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(5, 4))  # line 4 excludes way 1
        line_address = layout.line_address(paddr)
        tables.on_line_fill(line_address, 2)
        assert self._way(tables, paddr, 5) == 2
        tables.on_line_evict(line_address, 2)
        assert self._way(tables, paddr, 5) is None
        tables.on_line_fill(line_address, 1)
        assert self._way(tables, paddr, 5) is None
        assert stats["way_pred.unencodable_way"] == 1

    def test_eviction_clears_validity(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(5, 0))
        way = l1.load_parts(paddr)[1]
        tables.on_line_evict(layout.line_address(paddr), way)
        assert self._way(tables, paddr, 5) is None

    def test_unmapped_line_updates_counted(self):
        stats, translation, l1, tables = self._system()
        tables.on_line_fill(layout.compose_line(0x999, 0), 2)
        tables.on_line_evict(layout.compose_line(0x999, 0), 2)
        assert stats["way_pred.fill_unmapped"] == 1
        assert stats["way_pred.evict_unmapped"] == 1

    def test_prediction_allows_reduced_access(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(6, 3))
        l1.load_parts(paddr)
        way = self._way(tables, paddr, 6)
        hit, _, _, reduced, _, hint_wrong = l1.load_parts(paddr, way_hint=way)
        assert hit and reduced and not hint_wrong

    def test_feedback_update_after_unknown_conventional_hit(self):
        stats, translation, l1, tables = self._system(feedback=True)
        paddr, _ = translation.translate_pair(addr(7, 2))
        way = l1.load_parts(paddr)[1]  # fill
        # Forget the way (simulates a page whose WT entry was lost).
        slot = translation.utlb.reverse_lookup(layout.page_id(paddr), count_event=False)
        tables.uwt.clear_entry(slot)
        assert self._way(tables, paddr, 7) is None
        tables.feedback_conventional_hit(paddr, way)
        assert self._way(tables, paddr, 7) == way
        assert stats["way_pred.feedback_update"] == 1

    def test_feedback_disabled_is_a_noop(self):
        stats, translation, l1, tables = self._system(feedback=False)
        paddr, _ = translation.translate_pair(addr(7, 2))
        way = l1.load_parts(paddr)[1]
        slot = translation.utlb.reverse_lookup(layout.page_id(paddr), count_event=False)
        tables.uwt.clear_entry(slot)
        assert self._way(tables, paddr, 7) is None
        tables.feedback_conventional_hit(paddr, way)
        assert self._way(tables, paddr, 7) is None

    def test_utlb_eviction_writes_entry_back_to_wt(self):
        stats, translation, l1, tables = self._system()
        # Touch page 0 and learn a way.
        paddr, _ = translation.translate_pair(addr(0, 1))
        way = l1.load_parts(paddr)[1]
        # Touch enough other pages to push page 0 out of the 16-entry uTLB.
        for page in range(1, 40):
            translation.translate_pair(addr(page, 0))
        assert translation.utlb.lookup(0, count_event=False) is None
        # The information survives in the WT ...
        assert self._way(tables, paddr, 0) == way
        assert stats["wt.read"] == 1
        # ... and refills the uWT when the page is translated again.
        translation.translate_pair(addr(0, 1))
        assert self._way(tables, paddr, 0) == way
        assert stats["uwt.read"] == 1

    def test_tlb_eviction_loses_way_information(self):
        stats, translation, l1, tables = self._system(utlb_entries=2, tlb_entries=4)
        paddr, _ = translation.translate_pair(addr(0, 1))
        l1.load_parts(paddr)
        for page in range(1, 30):
            translation.translate_pair(addr(page, 0))
        # Page 0 left the 4-entry TLB entirely: no entry covers it, and a
        # re-fetch starts from a fresh, all-invalid entry.
        assert tables.predict_page(0) is None
        paddr, _ = translation.translate_pair(addr(0, 1))
        assert self._way(tables, paddr, 0) is None
        assert stats["wt.page_invalidated"] >= 1

    def test_storage_accounting(self):
        stats, translation, l1, tables = self._system()
        # 16-entry uWT + 64-entry WT at 128 bits each (Fig. 3).
        assert tables.total_storage_bits == (16 + 64) * 128


class TestWayDeterminationUnit:
    def test_unknown_then_known(self):
        wdu = WayDeterminationUnit(entries=4)
        address = addr(3, 1)
        assert not wdu.predict(address).known
        wdu.record(address, way=2)
        prediction = wdu.predict(address)
        assert prediction.known and prediction.way == 2

    def test_lru_eviction_by_capacity(self):
        wdu = WayDeterminationUnit(entries=2)
        wdu.record(addr(1, 0), 0)
        wdu.record(addr(1, 1), 1)
        wdu.record(addr(1, 2), 2)  # evicts the oldest entry
        assert not wdu.predict(addr(1, 0)).known
        assert wdu.predict(addr(1, 1)).known
        assert wdu.predict(addr(1, 2)).known

    def test_cache_eviction_invalidates_entry(self):
        wdu = WayDeterminationUnit(entries=8)
        wdu.record(addr(2, 0), 1)
        wdu.on_line_evict(addr(2, 0), 1)
        assert not wdu.predict(addr(2, 0)).known

    def test_attach_to_cache_tracks_fills(self):
        stats = StatCounters()
        l1 = L1DataCache(stats=stats)
        wdu = WayDeterminationUnit(entries=16, stats=stats)
        wdu.attach_to_cache(l1)
        way = l1.load_parts(addr(4, 0))[1]
        prediction = wdu.predict(addr(4, 0))
        assert prediction.known and prediction.way == way

    def test_rejects_bad_way(self):
        wdu = WayDeterminationUnit(entries=4)
        with pytest.raises(ValueError):
            wdu.record(addr(0, 0), 4)

    def test_storage_scales_with_entries(self):
        small = WayDeterminationUnit(entries=8).storage_bits
        large = WayDeterminationUnit(entries=32).storage_bits
        assert large == 4 * small

    def test_coverage_counts(self):
        wdu = WayDeterminationUnit(entries=4)
        wdu.predict(addr(0, 0))
        wdu.record(addr(0, 0), 1)
        wdu.predict(addr(0, 0))
        assert wdu.coverage == 0.5
