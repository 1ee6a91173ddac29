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


class TestWayTableEntry:
    def test_initially_unknown(self):
        entry = WayTableEntry()
        for line in range(layout.lines_per_page):
            assert not entry.lookup(line).known

    def test_update_and_lookup(self):
        entry = WayTableEntry()
        assert entry.update(5, way=3)
        prediction = entry.lookup(5)
        assert prediction.known and prediction.way == 3

    def test_excluded_way_rotates_per_line_group(self):
        entry = WayTableEntry()
        assert entry.excluded_way(0) == 0
        assert entry.excluded_way(3) == 0
        assert entry.excluded_way(4) == 1
        assert entry.excluded_way(8) == 2
        assert entry.excluded_way(12) == 3
        assert entry.excluded_way(16) == 0

    def test_excluded_way_cannot_be_encoded(self):
        entry = WayTableEntry()
        # Line 4 excludes way 1 (Sec. V).
        assert not entry.update(4, way=1)
        assert not entry.lookup(4).known

    def test_invalidate_line(self):
        entry = WayTableEntry()
        entry.update(7, way=2)
        entry.invalidate_line(7)
        assert not entry.lookup(7).known

    def test_clear(self):
        entry = WayTableEntry()
        entry.update(7, way=2)
        entry.update(9, way=3)
        entry.clear()
        assert entry.known_lines() == 0

    def test_copy_from(self):
        a, b = WayTableEntry(), WayTableEntry()
        a.update(1, way=2)
        b.copy_from(a)
        assert b.lookup(1).way == 2

    def test_storage_bits_match_paper(self):
        entry = WayTableEntry()
        assert entry.storage_bits == 128     # packed 2-bit format (Fig. 3)
        assert entry.naive_storage_bits == 192  # separate valid + way bits
        assert entry.storage_bits == entry.naive_storage_bits * 2 // 3

    def test_bad_line_index_rejected(self):
        entry = WayTableEntry()
        with pytest.raises(ValueError):
            entry.lookup(64)
        with pytest.raises(ValueError):
            entry.update(-1, 0)
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
        prediction = entry.lookup(line)
        if encoded:
            assert prediction.known and prediction.way == way
        else:
            assert way == entry.excluded_way(line)
            assert not prediction.known


class TestWayTableHierarchy:
    def _system(self, feedback=True):
        stats = StatCounters()
        translation = TLBHierarchy(stats=stats)
        l1 = L1DataCache(stats=stats, restrict_way_allocation=True)
        tables = WayTableHierarchy(translation, stats=stats, enable_feedback_update=feedback)
        tables.attach_to_cache(l1)
        return stats, translation, l1, tables

    def test_fill_updates_way_information(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(5, 0))
        way = l1.load_parts(paddr)[1]  # miss + fill -> tables learn the way
        prediction = tables.predict_line(5, layout.line_in_page(paddr))
        assert prediction.known
        assert prediction.way == way

    def test_eviction_clears_validity(self):
        stats, translation, l1, tables = self._system()
        translation.translate_pair(addr(5, 0))
        paddr, _ = translation.translate_pair(addr(5, 0))
        way = l1.load_parts(paddr)[1]
        tables.on_line_evict(layout.line_address(paddr), way)
        assert not tables.predict_line(5, layout.line_in_page(paddr)).known

    def test_prediction_allows_reduced_access(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(6, 3))
        l1.load_parts(paddr)
        prediction = tables.predict_line(6, layout.line_in_page(paddr))
        hit, _, _, reduced, _, hint_wrong = l1.load_parts(paddr, way_hint=prediction.way)
        assert hit and reduced and not hint_wrong

    def test_feedback_update_after_unknown_conventional_hit(self):
        stats, translation, l1, tables = self._system(feedback=True)
        paddr, _ = translation.translate_pair(addr(7, 2))
        way = l1.load_parts(paddr)[1]  # fill
        line = layout.line_in_page(paddr)
        # Forget the way (simulates a page whose WT entry was lost).
        slot = translation.utlb.reverse_lookup(layout.page_id(paddr), count_event=False)
        tables.uwt.clear_entry(slot)
        assert not tables.predict_line(7, line).known
        tables.feedback_conventional_hit(paddr, way)
        assert tables.predict_line(7, line).known

    def test_feedback_disabled_is_a_noop(self):
        stats, translation, l1, tables = self._system(feedback=False)
        paddr, _ = translation.translate_pair(addr(7, 2))
        way = l1.load_parts(paddr)[1]
        slot = translation.utlb.reverse_lookup(layout.page_id(paddr), count_event=False)
        tables.uwt.clear_entry(slot)
        tables.predict_line(7, layout.line_in_page(paddr))
        tables.feedback_conventional_hit(paddr, way)
        assert not tables.predict_line(7, layout.line_in_page(paddr)).known

    def test_utlb_eviction_writes_entry_back_to_wt(self):
        stats, translation, l1, tables = self._system()
        # Touch page 0 and learn a way.
        paddr, _ = translation.translate_pair(addr(0, 1))
        l1.load_parts(paddr)
        line = layout.line_in_page(paddr)
        # Touch enough other pages to push page 0 out of the 16-entry uTLB.
        for page in range(1, 40):
            translation.translate_pair(addr(page, 0))
        # The information must survive in the WT and refill the uWT on re-touch.
        prediction = tables.predict_line(0, line)
        assert prediction.known

    def test_tlb_eviction_loses_way_information(self):
        stats = StatCounters()
        translation = TLBHierarchy(utlb_entries=2, tlb_entries=4, stats=stats)
        l1 = L1DataCache(stats=stats, restrict_way_allocation=True)
        tables = WayTableHierarchy(translation, stats=stats)
        tables.attach_to_cache(l1)
        paddr, _ = translation.translate_pair(addr(0, 1))
        l1.load_parts(paddr)
        for page in range(1, 30):
            translation.translate_pair(addr(page, 0))
        # Page 0 left the 4-entry TLB entirely: a fresh entry starts invalid.
        assert not tables.predict_line(0, layout.line_in_page(paddr)).known
        assert stats["wt.page_invalidated"] >= 1

    def test_coverage_property(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(9, 0))
        l1.load_parts(paddr)
        tables.predict_line(9, 0)
        assert 0.0 <= tables.coverage <= 1.0

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
        assert wdu.predict(addr(1, 2)).known
        assert wdu.occupancy == 2

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
