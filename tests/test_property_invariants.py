"""Property-based invariants for the cache, TLB and way-determination logic.

The properties are the structural guarantees the paper's Sec. IV/V argument
rests on:

* a cache lookup immediately after an access always hits, in a way that
  holds the accessed tag;
* true-LRU replacement never victimises the most-recently-used line;
* way-table predictions are *valid-or-unknown* — a known way always matches
  the tag array (this is what makes tag-bypassed "reduced" accesses safe);
* a translation leaves its page in the uTLB, and each TLB level's reverse
  (physical) index stays consistent with the forward one.

Each invariant is written as a plain checker driven by ``hypothesis`` when
it is installed, and by a seeded ``random`` sweep otherwise, so the suite
keeps its property coverage on minimal environments.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.l2_cache import L2Cache
from repro.memory.address import AddressLayout
from repro.memory.hierarchy import MemoryHierarchy
from repro.core.way_table import WayTableHierarchy
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

try:  # pragma: no cover - which branch runs depends on the environment
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

#: cases per property in the stdlib-random fallback sweep
FALLBACK_CASES = 25


def fallback_seeds():
    """Deterministic seeds for the no-hypothesis sweep."""
    return pytest.mark.parametrize("seed", range(FALLBACK_CASES))


# ----------------------------------------------------------------------
# Invariant checkers (shared by both drivers)
# ----------------------------------------------------------------------
def small_l2(num_sets: int, ways: int) -> L2Cache:
    """An L2 of ``num_sets`` sets of ``ways`` 64-byte lines."""
    return L2Cache(capacity_bytes=num_sets * ways * 64, associativity=ways)


def check_lookup_after_access_hits(num_sets: int, ways: int, seed: int) -> None:
    """Accessing a line and probing it immediately must hit, in a way that
    holds the line's tag."""
    rng = random.Random(seed)
    l2 = small_l2(num_sets, ways)
    array = l2.array
    for _ in range(4 * num_sets * ways):
        line = rng.randrange(8 * ways * num_sets)
        l2.access(line * 64, rng.random() < 0.3)
        set_index, tag = line % num_sets, line // num_sets
        way = array.probe(set_index, tag)
        assert way is not None, (set_index, tag)
        assert array.tag_of(set_index, way) == tag
        assert tag in array.valid_tags(set_index)


def check_lru_never_evicts_mru(ways: int, seed: int) -> None:
    """The line accessed last survives the next access (true LRU)."""
    rng = random.Random(seed)
    l2 = small_l2(1, ways)
    last = None
    for _ in range(8 * ways):
        line = rng.randrange(2 * ways)
        l2.access(line * 64)
        if last is not None and ways > 1:
            assert l2.contains(last * 64), (last, line)
        last = line


def check_way_predictions_match_tag_array(accesses: int, seed: int) -> None:
    """A *known* way-table prediction always matches the cache's tag array.

    This is the safety property behind reduced (tag-bypassed) accesses: the
    paper's way tables are "valid-or-unknown", never wrong (Sec. V).
    """
    rng = random.Random(seed)
    stats = StatCounters()
    layout = AddressLayout()
    hierarchy = MemoryHierarchy(layout=layout, stats=stats)
    translation = TLBHierarchy(layout=layout, stats=stats, seed=seed)
    way_tables = WayTableHierarchy(translation, layout=layout, stats=stats)
    way_tables.attach_to_cache(hierarchy.l1)

    pages = [rng.randrange(1 << 10) for _ in range(6)]
    for _ in range(accesses):
        virtual = layout.compose_line(
            rng.choice(pages),
            rng.randrange(layout.lines_per_page),
            rng.randrange(0, layout.line_bytes, 4),
        )
        physical, _ = translation.translate_pair(virtual)
        line_in_page = layout.line_in_page(virtual)
        predicted = way_tables.predict_page(layout.page_id(virtual)).way_of(line_in_page)
        physical_line = layout.line_address(physical)
        if predicted is not None:
            assert hierarchy.l1.way_of(physical_line) == predicted, (
                hex(virtual),
                predicted,
            )
        # Access (and possibly fill) the line, mutating cache + way tables.
        hierarchy.l1.load_parts(physical)


def check_tlb_translate_lookup_consistency(entries: int, seed: int) -> None:
    """A translated page is in the uTLB, and at both levels the reverse
    index mirrors the forward one."""
    rng = random.Random(seed)
    stats = StatCounters()
    translation = TLBHierarchy(
        utlb_entries=max(2, entries // 4),
        tlb_entries=entries,
        stats=stats,
        seed=seed,
    )
    utlb = translation.utlb
    for _ in range(6 * entries):
        vpage = rng.randrange(1 << 12)
        ppage, _ = translation.translate_page_pair(vpage)
        slot = utlb.lookup(vpage, count_event=False)
        assert slot is not None and utlb.physical_page(slot) == ppage
        assert utlb.reverse_lookup(ppage, count_event=False) == slot
        for tlb in (utlb, translation.tlb):
            assert tlb.occupancy <= tlb.entries
    # Every resident virtual page must be reachable both ways.
    for tlb in (utlb, translation.tlb):
        for vpage in tlb.resident_virtual_pages():
            slot = tlb.lookup(vpage, count_event=False)
            assert slot is not None
            assert tlb.reverse_lookup(tlb.physical_page(slot), count_event=False) == slot


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    COMMON = dict(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )

    class TestPropertiesHypothesis:
        @given(
            num_sets=st.integers(min_value=1, max_value=32),
            ways=st.integers(min_value=1, max_value=8),
            seed=st.integers(min_value=0, max_value=2**20),
        )
        @settings(**COMMON)
        def test_lookup_after_access_hits(self, num_sets, ways, seed):
            check_lookup_after_access_hits(num_sets, ways, seed)

        @given(
            ways=st.integers(min_value=1, max_value=16),
            seed=st.integers(min_value=0, max_value=2**20),
        )
        @settings(**COMMON)
        def test_lru_never_evicts_mru(self, ways, seed):
            check_lru_never_evicts_mru(ways, seed)

        @given(seed=st.integers(min_value=0, max_value=2**20))
        @settings(deadline=None, max_examples=10)
        def test_way_predictions_match_tag_array(self, seed):
            check_way_predictions_match_tag_array(accesses=120, seed=seed)

        @given(
            entries=st.integers(min_value=2, max_value=64),
            seed=st.integers(min_value=0, max_value=2**20),
        )
        @settings(**COMMON)
        def test_tlb_translate_lookup_consistency(self, entries, seed):
            check_tlb_translate_lookup_consistency(entries, seed)

else:  # pragma: no cover - exercised only without hypothesis

    class TestPropertiesFallback:
        @fallback_seeds()
        def test_lookup_after_access_hits(self, seed):
            rng = random.Random(1000 + seed)
            check_lookup_after_access_hits(
                num_sets=rng.randrange(1, 33), ways=rng.randrange(1, 9), seed=seed
            )

        @fallback_seeds()
        def test_lru_never_evicts_mru(self, seed):
            rng = random.Random(2000 + seed)
            check_lru_never_evicts_mru(ways=rng.randrange(1, 17), seed=seed)

        @pytest.mark.parametrize("seed", range(8))
        def test_way_predictions_match_tag_array(self, seed):
            check_way_predictions_match_tag_array(accesses=120, seed=seed)

        @fallback_seeds()
        def test_tlb_translate_lookup_consistency(self, seed):
            rng = random.Random(3000 + seed)
            check_tlb_translate_lookup_consistency(
                entries=rng.randrange(2, 65), seed=seed
            )
