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


def walk(hierarchy: TLBHierarchy, *pages: int) -> None:
    """Translate each page in turn (refilling the uTLB/TLB as needed)."""
    for page in pages:
        hierarchy.translate_page_pair(page)


class TestTLB:
    def test_refill_installs_and_lookup_finds(self):
        hierarchy = TLBHierarchy()
        ppage, latency = hierarchy.translate_page_pair(5)
        assert latency == hierarchy.walk_latency
        for tlb in (hierarchy.utlb, hierarchy.tlb):
            slot = tlb.lookup(5)
            assert slot is not None and tlb.virtual_page(slot) == 5
            assert tlb.translation(5) == ppage == tlb.physical_page(slot)
            assert tlb.occupancy == 1

    def test_miss_counts(self):
        stats = StatCounters()
        tlb = TLB(entries=4, name="t", stats=stats)
        assert tlb.lookup(9) is None
        assert stats["t.lookup"] == 1 and stats["t.miss"] == 1

    def test_reverse_lookup(self):
        hierarchy = TLBHierarchy()
        ppage, _ = hierarchy.translate_page_pair(5)
        utlb = hierarchy.utlb
        assert utlb.reverse_lookup(ppage) == utlb.lookup(5, count_event=False)
        assert utlb.reverse_lookup(ppage + 1) is None

    def test_full_tlb_replaces_a_valid_entry(self, stats):
        hierarchy = TLBHierarchy(utlb_entries=2, tlb_entries=2, stats=stats)
        walk(hierarchy, 1, 2, 3)
        tlb = hierarchy.tlb
        # Three walks into two slots: the third replaced one of the first two.
        slot = tlb.lookup(3, count_event=False)
        assert tlb.virtual_page(slot) == 3
        assert tlb.resident_virtual_pages() in ([1, 3], [2, 3])
        assert stats["tlb.eviction"] == 1 and stats["tlb.fill"] == 3
        assert tlb.occupancy == 2

    def test_resident_pages_listing(self):
        hierarchy = TLBHierarchy()
        walk(hierarchy, 5, 3)
        assert hierarchy.tlb.resident_virtual_pages() == [3, 5]
        assert hierarchy.utlb.resident_virtual_pages() == [3, 5]

    def test_lookup_and_install_set_the_reference_bit(self):
        hierarchy = TLBHierarchy(utlb_entries=4)
        utlb = hierarchy.utlb
        walk(hierarchy, 5)
        slot = utlb.lookup(5, count_event=False)
        assert utlb._referenced[slot]
        utlb._referenced[slot] = 0
        assert utlb.lookup(5) == slot and utlb._referenced[slot]

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TLB(entries=0)


class TestTLBHierarchy:
    def test_first_access_walks_then_hits(self, stats):
        hierarchy = TLBHierarchy(stats=stats)
        vaddr = layout.compose(77, 10)
        first, first_latency = hierarchy.translate_pair(vaddr)
        assert first_latency == hierarchy.walk_latency
        assert hierarchy.translate_pair(vaddr) == (first, 0)

    def test_tlb_hit_refills_utlb(self, stats):
        hierarchy = TLBHierarchy(utlb_entries=2, tlb_entries=64, stats=stats)
        walk(hierarchy, *range(10))
        # Page 0 has long since left the 2-entry uTLB but stays in the TLB.
        assert hierarchy.translate_page_pair(0)[1] == 1
        assert hierarchy.utlb.lookup(0, count_event=False) is not None

    def test_offset_preserved(self):
        hierarchy = TLBHierarchy()
        physical, _ = hierarchy.translate_pair(layout.compose(55, 321))
        assert layout.page_offset(physical) == 321

    def test_address_and_page_translation_agree(self):
        hierarchy = TLBHierarchy()
        physical, _ = hierarchy.translate_pair(layout.compose(12, 40))
        assert hierarchy.translate_page_pair(12) == (layout.page_id(physical), 0)

    def test_translation_is_stable(self):
        hierarchy = TLBHierarchy()
        first = hierarchy.translate_page_pair(5)[0]
        walk(hierarchy, *range(200))
        assert hierarchy.translate_page_pair(5)[0] == first

    def test_lookup_event_counting(self, stats):
        hierarchy = TLBHierarchy(stats=stats)
        hierarchy.translate_pair(layout.compose(3, 0))
        hierarchy.translate_pair(layout.compose(3, 0))
        assert stats["utlb.lookup"] == 2
        assert stats["utlb.hit"] == 1
        assert stats["tlb.walk"] == 1


class TestSecondChanceUTLB:
    """Second-chance replacement of the uTLB (Sec. V), through ``refill``."""

    @staticmethod
    def utlb_pages(hierarchy):
        utlb = hierarchy.utlb
        return [utlb.virtual_page(slot) for slot in range(utlb.entries)]

    def test_invalid_slots_fill_first_in_index_order(self):
        hierarchy = TLBHierarchy(utlb_entries=4)
        walk(hierarchy, 10, 11, 12)
        assert self.utlb_pages(hierarchy) == [10, 11, 12, None]
        assert hierarchy._utlb_hand == 0  # no sweep while a slot is free

    def test_sweep_clears_the_bits_it_passes(self):
        hierarchy = TLBHierarchy(utlb_entries=4)
        walk(hierarchy, 10, 11, 12, 13)  # every install set its bit
        walk(hierarchy, 14)
        # One full turn cleared all four bits; slot 0 was taken on the way
        # round and the newcomer's install set its bit again.
        assert self.utlb_pages(hierarchy) == [14, 11, 12, 13]
        assert list(hierarchy.utlb._referenced) == [1, 0, 0, 0]
        assert hierarchy._utlb_hand == 1

    def test_referenced_slot_gets_a_second_chance(self):
        hierarchy = TLBHierarchy(utlb_entries=4)
        walk(hierarchy, 10, 11, 12, 13, 14)  # hand now at slot 1
        walk(hierarchy, 11)  # uTLB hit: slot 1 referenced again
        walk(hierarchy, 15)
        assert self.utlb_pages(hierarchy) == [14, 11, 15, 13]
        assert hierarchy._utlb_hand == 3

    def test_misses_without_reuse_go_round_the_clock(self):
        hierarchy = TLBHierarchy(utlb_entries=4)
        walk(hierarchy, 10, 11, 12, 13)
        victims = []
        for page in range(20, 26):
            walk(hierarchy, page)
            victims.append(hierarchy.utlb.lookup(page, count_event=False))
        assert victims == [0, 1, 2, 3, 0, 1]

    @pytest.mark.parametrize("entries", [2, 4, 16])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_randomized_trace_matches_clock_model(self, seed, entries):
        """A textbook clock (second-chance) uTLB, kept as plain lists, holds
        the same page in every slot with the same reference bits and hand
        after every translation of a random trace with reuse."""
        hierarchy = TLBHierarchy(utlb_entries=entries, tlb_entries=64, seed=seed)
        pages = [None] * entries
        referenced = [0] * entries
        hand = 0
        rng = random.Random(seed)
        for _ in range(400):
            page = rng.randrange(3 * entries)
            latency = hierarchy.translate_page_pair(page)[1]
            if page in pages:
                assert latency == 0
                referenced[pages.index(page)] = 1
            else:
                assert latency > 0
                if None in pages:
                    slot = pages.index(None)
                else:
                    while referenced[hand]:
                        referenced[hand] = 0
                        hand = (hand + 1) % entries
                    slot = hand
                    hand = (hand + 1) % entries
                pages[slot] = page
                referenced[slot] = 1
            assert self.utlb_pages(hierarchy) == pages
            assert list(hierarchy.utlb._referenced) == referenced
            assert hierarchy._utlb_hand == hand


class TestRandomTLB:
    """Random replacement of the TLB (Sec. V), through ``refill``."""

    @staticmethod
    def tlb_slots(seed: int, pages, tlb_entries: int = 4):
        hierarchy = TLBHierarchy(utlb_entries=2, tlb_entries=tlb_entries, seed=seed)
        slots = []
        for page in pages:
            walk(hierarchy, page)
            slots.append(hierarchy.tlb.lookup(page, count_event=False))
        return slots

    def test_invalid_slots_fill_first(self, stats):
        hierarchy = TLBHierarchy(utlb_entries=2, tlb_entries=8, stats=stats)
        walk(hierarchy, *range(8))
        assert sorted(
            hierarchy.tlb.lookup(page, count_event=False) for page in range(8)
        ) == list(range(8))
        assert stats["tlb.eviction"] == 0

    def test_deterministic_with_seed(self):
        pages = range(40)
        assert self.tlb_slots(7, pages) == self.tlb_slots(7, pages)
        assert self.tlb_slots(7, pages) != self.tlb_slots(8, pages)

    def test_covers_all_slots_eventually(self):
        assert set(self.tlb_slots(3, range(4, 200))) == {0, 1, 2, 3}

    def test_free_slots_are_drawn_in_index_order(self):
        """While slots are free, each walk draws ``choice`` over the invalid
        slots in index order from ``random.Random(seed + 1)``."""
        hierarchy = TLBHierarchy(utlb_entries=2, tlb_entries=4, seed=5)
        rng = random.Random(6)
        free = [0, 1, 2, 3]
        for page in range(4):
            walk(hierarchy, page)
            expected = rng.choice(free)
            assert hierarchy.tlb.lookup(page, count_event=False) == expected
            free.remove(expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_trace_matches_non_inclusive_model(self, seed):
        """The TLB is consulted only on uTLB misses and is not inclusive of
        the uTLB: a model that tracks which pages the uTLB holds, and draws
        the TLB's victims from ``random.Random(seed + 1)``, predicts every
        latency class and the TLB's slot contents along a random trace."""
        hierarchy = TLBHierarchy(
            utlb_entries=4, tlb_entries=8, walk_latency=30, seed=seed
        )
        tlb_pages = [None] * 8
        tlb_rng = random.Random(seed + 1)
        rng = random.Random(100 + seed)
        for _ in range(400):
            page = rng.randrange(24)
            in_utlb = hierarchy.utlb.lookup(page, count_event=False) is not None
            latency = hierarchy.translate_page_pair(page)[1]
            if in_utlb:
                expected = 0
            elif page in tlb_pages:
                expected = 1
            else:
                expected = 30
                free = [slot for slot, held in enumerate(tlb_pages) if held is None]
                tlb_pages[tlb_rng.choice(free or range(8))] = page
            assert latency == expected
            assert [
                hierarchy.tlb.virtual_page(slot) for slot in range(8)
            ] == tlb_pages


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
            frame, latency = hierarchy.translate_page_pair(rng.randrange(20))
            # Reverse lookups: side-effect free, unlike a touching lookup().
            utlb_slots.append(str(hierarchy.utlb.reverse_lookup(frame, count_event=False)))
            tlb_slot = hierarchy.tlb.reverse_lookup(frame, count_event=False)
            tlb_slots.append("-" if tlb_slot is None else str(tlb_slot))
            kinds.append({0: "u", 1: "t", hierarchy.walk_latency: "w"}[latency])
        assert ("".join(utlb_slots), "".join(tlb_slots), "".join(kinds)) == (
            REFILL_RECORDING[seed]
        )

    def test_refill_counters_match_recording(self):
        stats = StatCounters()
        hierarchy = TLBHierarchy(utlb_entries=4, tlb_entries=8, stats=stats, seed=0)
        WayTableHierarchy(hierarchy, stats=stats)
        rng = random.Random(0)
        for _ in range(60):
            hierarchy.translate_page_pair(rng.randrange(20))
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
