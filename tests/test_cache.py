"""Tests for the L1 cache bank, the full L1, the L2 and the DRAM model."""

import pytest

from repro.cache.cache_bank import CacheBank
from repro.cache.l1_cache import L1DataCache
from repro.cache.l2_cache import L2Cache
from repro.core.wdu import WayDeterminationUnit
from repro.memory.address import DEFAULT_LAYOUT
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import MemoryHierarchy

layout = DEFAULT_LAYOUT


def addr(page: int, line: int, offset: int = 0) -> int:
    return layout.compose_line(page, line, offset)


class TestCacheBank:
    def test_rejects_foreign_bank_address(self):
        bank = CacheBank(bank_index=0)
        with pytest.raises(ValueError):
            bank.read(addr(1, 1))  # line 1 belongs to bank 1

    def test_conventional_read_counts_all_ways(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        bank.read(addr(1, 0))
        assert stats["l1.tag_read"] == layout.l1_associativity
        assert stats["l1.data_read"] == layout.l1_associativity
        assert stats["l1.conventional_access"] == 1
        assert stats["l1.ctrl"] == 1

    def test_reduced_read_counts_single_data_array(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        fill = bank.fill(addr(1, 0))
        stats.clear()
        result = bank.read(addr(1, 0), way_hint=fill.way)
        assert result.hit and result.reduced
        assert stats["l1.tag_read"] == 0
        assert stats["l1.data_read"] == 1
        assert stats["l1.reduced_access"] == 1

    def test_wrong_way_hint_falls_back_to_conventional(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        fill = bank.fill(addr(1, 0))
        wrong = (fill.way + 1) % layout.l1_associativity
        result = bank.read(addr(1, 0), way_hint=wrong)
        assert result.hit and result.way_hint_wrong
        assert stats["l1.way_hint_wrong"] == 1
        assert stats["l1.conventional_access"] == 1

    def test_fill_reports_the_evicted_line(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        # Fill more lines than the set holds (same set, different tags).
        set_span = layout.l1_banks * layout.l1_sets_per_bank  # lines between same-set addresses
        lines = [
            layout.address_of_line(i * set_span)
            for i in range(layout.l1_associativity + 1)
        ]
        results = [bank.fill(line, dirty=(i == 0)) for i, line in enumerate(lines)]
        assert all(result.evicted_line_address is None for result in results[:-1])
        # True LRU: the first line filled is the one displaced, dirty.
        assert results[-1].evicted_line_address == lines[0]
        assert results[-1].evicted_dirty
        assert results[-1].way == results[0].way
        assert stats["l1.fill"] == len(lines)
        assert stats["l1.eviction"] == 1 and stats["l1.writeback"] == 1

    def test_excluded_way_rotation(self):
        bank = CacheBank(bank_index=0, restrict_way_allocation=True)
        assert bank.excluded_way_for(addr(0, 0)) == 0
        assert bank.excluded_way_for(addr(0, 4)) == 1
        assert bank.excluded_way_for(addr(0, 8)) == 2
        assert bank.excluded_way_for(addr(0, 12)) == 3
        assert bank.excluded_way_for(addr(0, 16)) == 0

    def test_restricted_fill_avoids_excluded_way(self):
        bank = CacheBank(bank_index=0, restrict_way_allocation=True)
        set_span = layout.l1_banks * layout.l1_sets_per_bank
        for i in range(16):
            result = bank.fill(layout.address_of_line(i * set_span))
            assert result.way != 0  # line-in-page 0 excludes way 0

    def test_store_write_marks_dirty_and_hits(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        bank.fill(addr(1, 0))
        result = bank.write(addr(1, 0))
        assert result.hit
        assert stats["l1.data_write"] >= 1

    def test_way_of_and_contains(self):
        bank = CacheBank(bank_index=0)
        assert not bank.contains(addr(2, 0))
        fill = bank.fill(addr(2, 0))
        assert bank.contains(addr(2, 0))
        assert bank.way_of(addr(2, 0)) == fill.way


class TestL1DataCache:
    def test_load_miss_then_hit(self, stats):
        l1 = L1DataCache(stats=stats)
        first = l1.load(addr(3, 5))
        assert not first.hit and first.latency > l1.hit_latency
        second = l1.load(addr(3, 5))
        assert second.hit and second.latency == l1.hit_latency
        assert stats["l1.load_miss"] == 1 and stats["l1.load_hit"] == 1

    def test_store_allocates_line(self):
        l1 = L1DataCache()
        outcome = l1.store(addr(4, 2))
        assert not outcome.hit
        assert l1.contains(addr(4, 2))
        assert l1.store(addr(4, 2)).hit

    def test_bank_routing(self):
        l1 = L1DataCache()
        outcome = l1.load(addr(1, 6))
        assert outcome.bank == 6 % 4

    def test_fills_and_evictions_reach_the_attached_wdu(self, stats):
        l1 = L1DataCache(stats=stats)
        wdu = WayDeterminationUnit(entries=16, stats=stats)
        wdu.attach_to_cache(l1)
        set_span = layout.l1_banks * layout.l1_sets_per_bank
        lines = [
            layout.address_of_line(i * set_span)
            for i in range(layout.l1_associativity + 1)
        ]
        ways = [l1.load(line).way for line in lines]
        assert wdu.predict(lines[-1]).way == ways[-1]
        assert not wdu.predict(lines[0]).known  # evicted: validity cleared
        assert stats["wdu.invalidate"] == 1

    def test_miss_rates(self):
        l1 = L1DataCache()
        l1.load(addr(6, 0))
        l1.load(addr(6, 0))
        assert l1.load_miss_rate == 0.5
        assert 0 < l1.miss_rate <= 0.5

    def test_occupancy_grows_with_distinct_lines(self):
        l1 = L1DataCache()
        for line in range(10):
            l1.load(addr(7, line))
        assert l1.occupancy() == 10

    def test_reduced_access_via_hint(self, stats):
        l1 = L1DataCache(stats=stats)
        outcome = l1.load(addr(8, 1))
        stats.clear()
        hit = l1.load(addr(8, 1), way_hint=outcome.way)
        assert hit.hit and hit.reduced
        assert stats["l1.tag_read"] == 0


class TestL2AndDRAM:
    def test_l2_miss_goes_to_dram(self, stats):
        l2 = L2Cache(stats=stats)
        latency = l2.access(addr(9, 0))
        assert latency == l2.latency_cycles + l2.dram.latency_cycles
        assert stats["dram.read"] == 1
        assert l2.contains(addr(9, 0))

    def test_l2_hit_latency(self):
        l2 = L2Cache()
        l2.access(addr(9, 0))
        assert l2.access(addr(9, 0)) == l2.latency_cycles

    def test_l2_miss_rate(self):
        l2 = L2Cache()
        l2.access(addr(9, 0))
        l2.access(addr(9, 0))
        assert l2.miss_rate == 0.5

    def test_dirty_victim_written_back_under_its_own_address(self, stats):
        class SpyDRAM(DRAMModel):
            def write(self, address):
                written.append(address)
                return super().write(address)

        written = []
        # One set of two ways: the third distinct line evicts the first.
        l2 = L2Cache(
            capacity_bytes=2 * layout.line_bytes,
            associativity=2,
            dram=SpyDRAM(stats=stats),
            stats=stats,
        )
        first, second, third = (layout.address_of_line(n) for n in (3, 8, 21))
        l2.access(first + 4, is_write=True)
        l2.access(second)
        l2.access(third)
        assert written == [first]
        assert stats["l2.writeback"] == 1 and stats["dram.write"] == 1
        assert not l2.contains(first) and l2.contains(third)

    def test_l2_geometry_validation(self):
        with pytest.raises(ValueError):
            L2Cache(capacity_bytes=1000)

    def test_dram_counts_and_capacity(self):
        dram = DRAMModel(capacity_bytes=1 << 20)
        assert dram.read(0) == dram.latency_cycles
        assert dram.write(0) == dram.latency_cycles
        assert dram.accesses == 2
        with pytest.raises(ValueError):
            dram.read(1 << 20)

    def test_dram_validation(self):
        with pytest.raises(ValueError):
            DRAMModel(capacity_bytes=0)
        with pytest.raises(ValueError):
            DRAMModel(latency_cycles=-1)


class TestMemoryHierarchy:
    def test_l1_miss_fills_both_levels(self):
        hierarchy = MemoryHierarchy()
        outcome = hierarchy.l1.load(addr(10, 0))
        assert not outcome.hit
        # The miss latency includes L2 and DRAM.
        assert outcome.latency == 2 + 12 + 54
        assert hierarchy.l1.contains(addr(10, 0))
        assert hierarchy.l2.contains(addr(10, 0))

    def test_shared_stats_object(self):
        hierarchy = MemoryHierarchy()
        hierarchy.l1.load(addr(10, 0))
        assert hierarchy.stats["l1.load"] == 1
        assert hierarchy.stats["l2.access"] == 1
        assert hierarchy.stats["dram.read"] == 1

    def test_latency_overrides(self):
        hierarchy = MemoryHierarchy(l1_hit_latency=1, l2_latency=5, dram_latency=10)
        outcome = hierarchy.l1.load(addr(11, 0))
        assert outcome.latency == 1 + 5 + 10
