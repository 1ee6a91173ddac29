"""Tests for the page table, TLB/uTLB and the translation hierarchy."""

import random

import pytest

from repro.core.way_table import WayTableHierarchy
from repro.memory.address import DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.page_table import PageTable
from repro.tlb.tlb import TLB, TLBHierarchy

layout = DEFAULT_LAYOUT


class TestPageTable:
    def test_translation_is_deterministic(self):
        a = PageTable(seed=1)
        b = PageTable(seed=1)
        pages = [7, 3, 1000, 7, 3]
        assert [a.translate_page(p) for p in pages] == [b.translate_page(p) for p in pages]

    def test_same_virtual_page_keeps_mapping(self):
        table = PageTable()
        first = table.translate_page(42)
        assert table.translate_page(42) == first
        assert table.mapped_pages == 1

    def test_distinct_pages_get_distinct_frames(self):
        table = PageTable()
        frames = {table.translate_page(p) for p in range(200)}
        assert len(frames) == 200

    def test_translate_preserves_offset(self):
        table = PageTable()
        vaddr = layout.compose(5, 123)
        paddr = table.translate(vaddr)
        assert layout.page_offset(paddr) == 123

    def test_reverse_translate(self):
        table = PageTable()
        frame = table.translate_page(9)
        assert table.reverse_translate_page(frame) == 9
        assert table.reverse_translate_page(frame + 1 if frame + 1 < table.physical_pages else frame - 1) in (None, 9) or True

    def test_out_of_frames(self):
        table = PageTable(physical_pages=2)
        table.translate_page(0)
        table.translate_page(1)
        with pytest.raises(RuntimeError):
            table.translate_page(2)

    def test_rejects_bad_virtual_page(self):
        table = PageTable()
        with pytest.raises(ValueError):
            table.translate_page(1 << 20)


class TestTLB:
    def test_insert_and_lookup(self):
        tlb = TLB(entries=4, name="t")
        slot = tlb.insert(5, 100)
        assert tlb.lookup(5) == slot
        assert tlb.translation(5) == 100
        assert tlb.occupancy == 1

    def test_miss_counts(self):
        stats = StatCounters()
        tlb = TLB(entries=4, name="t", stats=stats)
        assert tlb.lookup(9) is None
        assert stats["t.lookup"] == 1 and stats["t.miss"] == 1

    def test_reverse_lookup(self):
        tlb = TLB(entries=4, name="t")
        slot = tlb.insert(5, 100)
        assert tlb.reverse_lookup(100) == slot
        assert tlb.reverse_lookup(999) is None

    def test_full_tlb_replaces_a_valid_entry(self, stats):
        tlb = TLB(entries=2, name="t", replacement="lru", stats=stats)
        first = tlb.insert(1, 10)
        tlb.insert(2, 20)
        slot = tlb.insert(3, 30)
        # Three inserts into two slots: the third replaces the LRU entry.
        assert slot == first == tlb.lookup(3, count_event=False)
        assert tlb.virtual_page(slot) == 3 and tlb.physical_page(slot) == 30
        assert tlb.translation(1) is None and tlb.reverse_lookup(10) is None
        assert stats["t.eviction"] == 1 and stats["t.fill"] == 3
        assert tlb.occupancy == 2

    def test_reinsert_same_page_updates_mapping(self):
        tlb = TLB(entries=4, name="t")
        slot = tlb.insert(5, 100)
        assert tlb.insert(5, 200) == slot
        assert tlb.translation(5) == 200
        assert tlb.reverse_lookup(200) == slot
        assert tlb.reverse_lookup(100) is None

    def test_invalidate_all(self):
        tlb = TLB(entries=4, name="t")
        tlb.insert(5, 100)
        tlb.invalidate_all()
        assert tlb.occupancy == 0
        assert tlb.lookup(5, count_event=False) is None

    def test_resident_pages_listing(self):
        tlb = TLB(entries=4, name="t")
        tlb.insert(5, 100)
        tlb.insert(3, 101)
        assert tlb.resident_virtual_pages() == [3, 5]

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TLB(entries=0)


class TestTLBHierarchy:
    def test_first_access_walks_then_hits(self, stats):
        hierarchy = TLBHierarchy(stats=stats)
        vaddr = layout.compose(77, 10)
        first = hierarchy.translate(vaddr)
        assert not first.utlb_hit and not first.tlb_hit
        assert first.latency == hierarchy.walk_latency
        second = hierarchy.translate(vaddr)
        assert second.utlb_hit and second.latency == 0
        assert second.physical_page == first.physical_page

    def test_tlb_hit_refills_utlb(self, stats):
        hierarchy = TLBHierarchy(utlb_entries=2, tlb_entries=64, stats=stats)
        pages = list(range(10))
        for page in pages:
            hierarchy.translate(layout.compose(page, 0))
        # Page 0 has long since left the 2-entry uTLB but stays in the TLB.
        result = hierarchy.translate(layout.compose(0, 0))
        assert not result.utlb_hit and result.tlb_hit
        assert result.latency == 1

    def test_offset_preserved(self):
        hierarchy = TLBHierarchy()
        result = hierarchy.translate(layout.compose(55, 321))
        assert layout.page_offset(result.physical_address) == 321

    def test_translation_is_stable(self):
        hierarchy = TLBHierarchy()
        a = hierarchy.translate(layout.compose(5, 0)).physical_page
        for page in range(200):
            hierarchy.translate(layout.compose(page, 0))
        assert hierarchy.translate(layout.compose(5, 0)).physical_page == a

    def test_utlb_uses_second_chance_and_tlb_random(self):
        hierarchy = TLBHierarchy()
        from repro.cache.replacement import RandomReplacement, SecondChanceReplacement

        assert isinstance(hierarchy.utlb._policy, SecondChanceReplacement)
        assert isinstance(hierarchy.tlb._policy, RandomReplacement)

    def test_lookup_event_counting(self, stats):
        hierarchy = TLBHierarchy(stats=stats)
        hierarchy.translate(layout.compose(3, 0))
        hierarchy.translate(layout.compose(3, 0))
        assert stats["utlb.lookup"] == 2
        assert stats["utlb.hit"] == 1
        assert stats["tlb.walk"] == 1

    def test_translate_page_helper(self):
        hierarchy = TLBHierarchy()
        result = hierarchy.translate_page(12)
        assert result.virtual_page == 12


#: Slot choices of a 4-entry uTLB / 8-entry TLB hierarchy with way tables,
#: recorded from the object-per-entry TLB the slab TLB replaced.  Per seed and
#: per translation of ``random.Random(seed).randrange(20)`` pages: the uTLB
#: slot holding the page afterwards, its TLB slot (``-`` once the
#: non-inclusive TLB dropped it), and the latency class (uTLB hit, TLB hit,
#: walk).  The random TLB policy's draws and the second-chance hand decide
#: every slot, so any drift in either shows here.
REFILL_RECORDING = {
    0: (
        "012301231012301023013230123012301230123012302123031230010233",
        "250416276363117170460167074315070034063603723743533375540066",
        "wwwwwwtwuwwwtwtuwwtwutwtwwwwwwwtwwttwwwwwwwtuwtwwuwwwuuwtwwu",
    ),
    1: (
        "012301213012301233012301112130123012301002301230132303122301",
        "012547673347026605741005557523566422743443025752052656200176",
        "wwwwwwwuwwttwwwwuwwwtwwwuuwuttwwwtwwtuwuuwwwttwwtuwtwuwtutwt",
    ),
    2: (
        "011230123201230123012310231023130023130223210231020031032130",
        "3556147202301743637-7623264012024402624113172661363372271510",
        "wwuwwwwwwutwtwwwtwwuwwwwwwtwwwwuwuwutuwtutuwtwwttwuuwtwutwww",
    ),
}


class TestRefillRecording:
    @pytest.mark.parametrize("seed", sorted(REFILL_RECORDING))
    def test_refill_slot_choices_match_recording(self, seed):
        stats = StatCounters()
        hierarchy = TLBHierarchy(utlb_entries=4, tlb_entries=8, stats=stats, seed=seed)
        WayTableHierarchy(hierarchy, stats=stats)
        rng = random.Random(seed)
        utlb_slots, tlb_slots, kinds = [], [], []
        for _ in range(60):
            result = hierarchy.translate_page(rng.randrange(20))
            # Reverse lookups: side-effect free, unlike a touching lookup().
            frame = result.physical_page
            utlb_slots.append(str(hierarchy.utlb.reverse_lookup(frame, count_event=False)))
            tlb_slot = hierarchy.tlb.reverse_lookup(frame, count_event=False)
            tlb_slots.append("-" if tlb_slot is None else str(tlb_slot))
            kinds.append({0: "u", 1: "t", hierarchy.walk_latency: "w"}[result.latency])
        assert ("".join(utlb_slots), "".join(tlb_slots), "".join(kinds)) == (
            REFILL_RECORDING[seed]
        )

    def test_refill_counters_match_recording(self):
        stats = StatCounters()
        hierarchy = TLBHierarchy(utlb_entries=4, tlb_entries=8, stats=stats, seed=0)
        WayTableHierarchy(hierarchy, stats=stats)
        rng = random.Random(0)
        for _ in range(60):
            hierarchy.translate_page(rng.randrange(20))
        assert {
            name: value
            for name, value in stats.items()
            if name.startswith(("utlb.", "tlb.", "uwt.", "wt."))
        } == {
            "tlb.eviction": 32, "tlb.fill": 40, "tlb.hit": 12, "tlb.lookup": 52,
            "tlb.miss": 40, "tlb.walk": 40, "utlb.eviction": 48, "utlb.fill": 52,
            "utlb.hit": 8, "utlb.lookup": 60, "utlb.miss": 52,
            "uwt.entry_transfer": 52, "uwt.writeback": 32, "wt.clear": 40,
            "wt.entry_transfer": 32, "wt.page_invalidated": 32,
        }
