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


def decompose(address: int):
    parts = layout.decompose(address)
    return parts.set_index, parts.tag


class TestCacheBank:
    def test_rejects_foreign_bank_address(self):
        bank = CacheBank(bank_index=0)
        with pytest.raises(ValueError):
            bank.way_of(addr(1, 1))  # line 1 belongs to bank 1

    def test_conventional_read_counts_all_ways(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        assert bank.read_parts(*decompose(addr(1, 0)), None) == (False, None, False, False)
        assert stats["l1.tag_read"] == layout.l1_associativity
        assert stats["l1.data_read"] == layout.l1_associativity
        assert stats["l1.conventional_access"] == 1
        assert stats["l1.subblock_pair_read"] == 1
        assert stats["l1.ctrl"] == 1

    def test_reduced_read_counts_single_data_array(self, stats):
        l1 = L1DataCache(stats=stats)
        way = l1.load_parts(addr(1, 0))[1]
        stats.clear()
        hit, _, _, reduced, _, hint_wrong = l1.load_parts(addr(1, 0), way_hint=way)
        assert hit and reduced and not hint_wrong
        assert stats["l1.tag_read"] == 0
        assert stats["l1.data_read"] == 1
        assert stats["l1.reduced_access"] == 1

    def test_wrong_way_hint_falls_back_to_conventional(self, stats):
        l1 = L1DataCache(stats=stats)
        way = l1.load_parts(addr(1, 0))[1]
        stats.clear()
        wrong = (way + 1) % layout.l1_associativity
        hit, hit_way, _, reduced, _, hint_wrong = l1.load_parts(addr(1, 0), way_hint=wrong)
        assert hit and hit_way == way and not reduced and hint_wrong
        assert stats["l1.way_hint_wrong"] == 1
        assert stats["l1.conventional_access"] == 1

    def test_store_write_marks_dirty_and_hits(self, stats):
        l1 = L1DataCache(stats=stats)
        way = l1.load_parts(addr(1, 0))[1]
        stats.clear()
        assert l1.store_parts(addr(1, 0))[:2] == (True, way)
        assert stats["l1.data_write"] == 1
        set_index, _ = decompose(addr(1, 0))
        assert l1.banks[0].array.is_dirty(set_index, way)

    def test_way_of_and_contains(self):
        l1 = L1DataCache()
        bank = l1.banks[0]
        assert not bank.contains(addr(2, 0))
        way = l1.load_parts(addr(2, 0))[1]
        assert bank.contains(addr(2, 0))
        assert bank.way_of(addr(2, 0)) == way


class TestL1Fills:
    """The fill/evict side of ``L1DataCache._miss``, through the full L1."""

    #: lines between two addresses of the same bank and set
    SET_SPAN = layout.l1_banks * layout.l1_sets_per_bank

    def test_fill_evicts_the_lru_line_and_writes_it_back(self, stats):
        l1 = L1DataCache(stats=stats)
        lines = [
            layout.address_of_line(i * self.SET_SPAN)
            for i in range(layout.l1_associativity + 1)
        ]
        l1.store_parts(lines[0])
        first_way = l1.way_of(lines[0])
        for line in lines[1:-1]:
            l1.load_parts(line)
        assert stats["l1.eviction"] == 0
        # True LRU: the first line filled is the one displaced, dirty.
        assert l1.load_parts(lines[-1])[1] == first_way
        assert not l1.contains(lines[0])
        assert stats["l1.fill"] == len(lines)
        assert stats["l1.eviction"] == 1 and stats["l1.writeback"] == 1
        assert stats["l2.writeback"] == 0 and stats["l2.hit"] == 1  # write-back hit

    @pytest.mark.parametrize("line_in_page", [0, 4, 8, 12, 16, 60])
    def test_restricted_fill_avoids_excluded_way(self, line_in_page):
        """Sec. V: lines 0..3 of a page cannot use way 0, lines 4..7 way 1, …"""
        l1 = L1DataCache(restrict_way_allocation=True)
        excluded = (line_in_page // layout.l1_banks) % layout.l1_associativity
        for page in range(16):
            way = l1.load_parts(addr(page * 256, line_in_page))[1]
            assert way != excluded


class TestL1DataCache:
    def test_load_miss_then_hit(self, stats):
        l1 = L1DataCache(stats=stats)
        hit, _, latency = l1.load_parts(addr(3, 5))[:3]
        assert not hit and latency > l1.hit_latency
        hit, _, latency = l1.load_parts(addr(3, 5))[:3]
        assert hit and latency == l1.hit_latency
        assert stats["l1.load_miss"] == 1 and stats["l1.load_hit"] == 1

    def test_store_allocates_line(self):
        l1 = L1DataCache()
        assert not l1.store_parts(addr(4, 2))[0]
        assert l1.contains(addr(4, 2))
        assert l1.store_parts(addr(4, 2))[0]

    def test_bank_routing(self):
        l1 = L1DataCache()
        assert l1.load_parts(addr(1, 6))[4] == 6 % 4

    def test_fills_and_evictions_reach_the_attached_wdu(self, stats):
        l1 = L1DataCache(stats=stats)
        wdu = WayDeterminationUnit(entries=16, stats=stats)
        wdu.attach_to_cache(l1)
        set_span = layout.l1_banks * layout.l1_sets_per_bank
        lines = [
            layout.address_of_line(i * set_span)
            for i in range(layout.l1_associativity + 1)
        ]
        ways = [l1.load_parts(line)[1] for line in lines]
        assert wdu.predict(lines[-1]).way == ways[-1]
        assert not wdu.predict(lines[0]).known  # evicted: validity cleared
        assert stats["wdu.invalidate"] == 1

    def test_miss_rates(self):
        l1 = L1DataCache()
        l1.load_parts(addr(6, 0))
        l1.load_parts(addr(6, 0))
        assert l1.load_miss_rate == 0.5
        assert 0 < l1.miss_rate <= 0.5

    def test_occupancy_grows_with_distinct_lines(self):
        l1 = L1DataCache()
        for line in range(10):
            l1.load_parts(addr(7, line))
        assert l1.occupancy() == 10

    def test_reduced_access_via_hint(self, stats):
        l1 = L1DataCache(stats=stats)
        way = l1.load_parts(addr(8, 1))[1]
        stats.clear()
        hit, _, _, reduced = l1.load_parts(addr(8, 1), way_hint=way)[:4]
        assert hit and reduced
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
        hit, _, latency = hierarchy.l1.load_parts(addr(10, 0))[:3]
        assert not hit
        # The miss latency includes L2 and DRAM.
        assert latency == 2 + 12 + 54
        assert hierarchy.l1.contains(addr(10, 0))
        assert hierarchy.l2.contains(addr(10, 0))

    def test_shared_stats_object(self):
        hierarchy = MemoryHierarchy()
        hierarchy.l1.load_parts(addr(10, 0))
        assert hierarchy.stats["l1.load"] == 1
        assert hierarchy.stats["l2.access"] == 1
        assert hierarchy.stats["dram.read"] == 1

    def test_latency_overrides(self):
        hierarchy = MemoryHierarchy(l1_hit_latency=1, l2_latency=5, dram_latency=10)
        assert hierarchy.l1.load_parts(addr(11, 0))[2] == 1 + 5 + 10
