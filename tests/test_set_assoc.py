"""Tests for the slab-backed LRU state and the two miss paths that write it.

The L1 (:meth:`L1DataCache.load_parts` / :meth:`L1DataCache.store_parts`)
and the L2 (:meth:`L2Cache.access`) choose their victims on the stamp slabs
of :class:`~repro.cache.set_assoc.SetAssociativeArray`.  Both are driven here
against the list-based LRU oracle of ``lru_model``, step by step: the way,
the evicted line and its dirty bit, and every set's valid tags and dirty
bits.  Evictions are observed through duck-typed spies — a way-determination
spy attached as ``l1.wdu`` and a spy L2 (for the L1), a spy DRAM (for the
L2).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lru_model import ListLRUArray
from repro.cache.l1_cache import L1DataCache
from repro.cache.l2_cache import L2Cache
from repro.cache.set_assoc import SetAssociativeArray
from repro.memory.address import AddressLayout
from repro.memory.dram import DRAMModel

LINE_BYTES = 64
#: latency the spy L2 charges for every access
SPY_L2_LATENCY = 7


class SpyL2:
    """Duck-typed L2 recording each access as ``(address, is_write)``."""

    def __init__(self) -> None:
        self.accesses = []

    def access(self, physical_address, is_write=False):
        self.accesses.append((physical_address, is_write))
        return SPY_L2_LATENCY


class SpyWayDetermination:
    """Duck-typed WDU (attached as ``l1.wdu``) recording fills/evictions."""

    def __init__(self) -> None:
        self.events = []

    def on_line_fill(self, line_address, way):
        self.events.append(("fill", line_address, way))

    def on_line_evict(self, line_address, way):
        self.events.append(("evict", line_address, way))


class SpyDRAM(DRAMModel):
    """DRAM recording the addresses it reads and writes."""

    def __init__(self) -> None:
        super().__init__()
        self.reads, self.writes = [], []

    def read(self, address):
        self.reads.append(address)
        return super().read(address)

    def write(self, address):
        self.writes.append(address)
        return super().write(address)


def small_l1(banks: int, sets: int, ways: int, restrict: bool = False) -> L1DataCache:
    """An L1 of ``banks`` x ``sets`` x ``ways`` lines (8 lines per page) with
    a spy L2 and a spy way-determination unit."""
    layout = AddressLayout(
        address_bits=20,
        page_bytes=8 * LINE_BYTES,
        line_bytes=LINE_BYTES,
        l1_capacity_bytes=banks * sets * ways * LINE_BYTES,
        l1_associativity=ways,
        l1_banks=banks,
    )
    l1 = L1DataCache(layout=layout, restrict_way_allocation=restrict, l2=SpyL2())
    l1.wdu = SpyWayDetermination()
    return l1


def line_address(line: int) -> int:
    return line * LINE_BYTES


# ----------------------------------------------------------------------
# The L1 miss path
# ----------------------------------------------------------------------
class TestL1Replacement:
    def test_miss_then_hit(self):
        l1 = small_l1(banks=1, sets=4, ways=2)
        hit, way, latency = l1.load_parts(line_address(5) + 3)[:3]
        assert not hit and latency == l1.hit_latency + SPY_L2_LATENCY
        assert l1.load_parts(line_address(5))[:3] == (True, way, l1.hit_latency)
        assert l1.banks[0].array.tag_of(1, way) == 1  # line 5 = tag 1, set 1

    def test_store_hit_sets_dirty_and_loads_never_clean(self):
        l1 = small_l1(banks=1, sets=1, ways=2)
        way = l1.load_parts(line_address(1))[1]
        array = l1.banks[0].array
        assert not array.is_dirty(0, way)
        assert l1.store_parts(line_address(1))[:2] == (True, way)
        assert array.is_dirty(0, way)
        l1.load_parts(line_address(1))
        assert array.is_dirty(0, way)

    def test_hit_makes_a_line_most_recently_used(self):
        l1 = small_l1(banks=1, sets=1, ways=2)
        for line in (1, 2, 1):  # line 1 re-used: line 2 is now LRU
            l1.load_parts(line_address(line))
        l1.wdu.events.clear()
        way = l1.load_parts(line_address(3))[1]
        assert l1.wdu.events[0] == ("evict", line_address(2), way)

    def test_probes_do_not_touch_replacement(self):
        l1 = small_l1(banks=1, sets=1, ways=2)
        l1.load_parts(line_address(1))
        l1.load_parts(line_address(2))
        assert l1.contains(line_address(1))  # non-updating probes
        assert l1.banks[0].array.probe(0, 1) is not None
        l1.wdu.events.clear()
        l1.load_parts(line_address(3))
        assert l1.wdu.events[0][:2] == ("evict", line_address(1))

    def test_fresh_set_fills_from_the_last_way(self):
        """The LRU stack starts 0, 1, …: the last way is the first victim."""
        l1 = small_l1(banks=1, sets=2, ways=4)
        ways = [l1.load_parts(line_address(2 * n + 1))[1] for n in range(4)]
        assert ways == [3, 2, 1, 0]

    def test_invalid_excluded_way_is_skipped(self):
        # With one bank, line k of a page excludes way k % 4.  Way 3 is the
        # first victim of a fresh set; line 3 excludes it, so way 2 follows.
        l1 = small_l1(banks=1, sets=1, ways=4, restrict=True)
        assert l1.load_parts(line_address(3))[1] == 2
        assert l1.load_parts(line_address(8))[1] == 3

    def test_dirty_victim_is_written_back_under_its_own_address(self):
        l1 = small_l1(banks=2, sets=1, ways=1)
        l1.store_parts(line_address(2) + 8)
        l1.l2.accesses.clear()
        l1.load_parts(line_address(4))  # same bank and set: evicts line 2
        assert l1.l2.accesses == [(line_address(4), False), (line_address(2), True)]
        assert not l1.banks[0].array.is_dirty(0, 0)

    def test_excluding_the_only_way_rejected(self):
        with pytest.raises(ValueError):
            small_l1(banks=1, sets=1, ways=1, restrict=True)


class TestL1AgainstListModel:
    """``load_parts``/``store_parts`` against the list-based LRU oracle."""

    @staticmethod
    def drive(banks: int, sets: int, ways: int, restrict: bool, seed: int,
              steps: int = 400) -> None:
        rng = random.Random(seed)
        l1 = small_l1(banks, sets, ways, restrict)
        lines_per_page = l1.layout.lines_per_page
        model = ListLRUArray(banks * sets, ways)
        for step in range(steps):
            line = rng.randrange(3 * banks * sets * ways)
            address = line_address(line) + rng.randrange(LINE_BYTES)
            bank, set_index = line % banks, (line // banks) % sets
            tag = line // (banks * sets)
            index = bank * sets + set_index
            is_store = rng.random() < 0.3
            hint = rng.choice((None, None, rng.randrange(ways)))
            excluded = (line % lines_per_page) // banks % ways if restrict else None
            resident = model.find_way(index, tag, update_replacement=False)
            way, evicted_tag, evicted_dirty = model.fill(
                index, tag, dirty=is_store, excluded_way=excluded
            )
            l1.wdu.events.clear()
            l1.l2.accesses.clear()
            access = l1.store_parts if is_store else l1.load_parts
            outcome = access(address, hint)
            context = (seed, step, hex(address), is_store, hint)
            assert outcome[:2] == (resident is not None, way), context
            events, l2_accesses = [], []
            if resident is None:
                l2_accesses.append((address, False))
                if evicted_tag is not None:
                    evicted_line = (evicted_tag * sets + set_index) * banks + bank
                    events.append(("evict", line_address(evicted_line), way))
                    if evicted_dirty:
                        l2_accesses.append((line_address(evicted_line), True))
                events.append(("fill", line_address(line), way))
            assert l1.wdu.events == events, context
            assert l1.l2.accesses == l2_accesses, context
            for bank_index, cache_bank in enumerate(l1.banks):
                for s in range(sets):
                    at = bank_index * sets + s
                    assert cache_bank.array.valid_tags(s) == model.valid_tags(at), context
                    assert [cache_bank.array.is_dirty(s, w) for w in range(ways)] == [
                        model.is_dirty(at, w) for w in range(ways)
                    ], context

    @pytest.mark.parametrize(
        "banks,sets,ways,restrict",
        [
            (1, 1, 1, False),
            (1, 1, 2, True),
            (2, 2, 4, False),
            (2, 2, 4, True),
            (4, 1, 8, True),
            (1, 1, 16, False),
        ],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_mix_matches_model(self, banks, sets, ways, restrict, seed):
        self.drive(banks, sets, ways, restrict, seed)


# ----------------------------------------------------------------------
# The L2 access path
# ----------------------------------------------------------------------
class TestL2AgainstListModel:
    """``L2Cache.access`` against the list-based LRU oracle."""

    @staticmethod
    def drive(sets: int, ways: int, seed: int, steps: int = 400) -> None:
        rng = random.Random(seed)
        dram = SpyDRAM()
        l2 = L2Cache(capacity_bytes=sets * ways * LINE_BYTES, associativity=ways, dram=dram)
        model = ListLRUArray(sets, ways)
        for step in range(steps):
            line = rng.randrange(3 * sets * ways)
            address = line_address(line) + rng.randrange(LINE_BYTES)
            set_index, tag = line % sets, line // sets
            is_write = rng.random() < 0.3
            resident = model.find_way(set_index, tag, update_replacement=False)
            way, evicted_tag, evicted_dirty = model.fill(set_index, tag, dirty=is_write)
            dram.reads.clear()
            dram.writes.clear()
            latency = l2.access(address, is_write)
            context = (seed, step, hex(address), is_write)
            if resident is None:
                assert latency == l2.latency_cycles + dram.latency_cycles, context
                assert dram.reads == [address], context
            else:
                assert latency == l2.latency_cycles, context
                assert dram.reads == [], context
            written = []
            if evicted_dirty:
                written.append(line_address(evicted_tag * sets + set_index))
            assert dram.writes == written, context
            assert l2.array.probe(set_index, tag) == way, context
            for s in range(sets):
                assert l2.array.valid_tags(s) == model.valid_tags(s), context
                assert [l2.array.is_dirty(s, w) for w in range(ways)] == [
                    model.is_dirty(s, w) for w in range(ways)
                ], context

    @pytest.mark.parametrize("sets,ways", [(1, 1), (1, 2), (2, 4), (3, 4), (1, 16), (4, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_mix_matches_model(self, sets, ways, seed):
        self.drive(sets, ways, seed)


# ----------------------------------------------------------------------
# The array's own observers
# ----------------------------------------------------------------------
class TestValidation:
    def test_bad_set_index(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        with pytest.raises(ValueError):
            array.find_way(2, tag=0)

    def test_bad_way_index(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        with pytest.raises(ValueError):
            array.is_valid(0, 2)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeArray(num_sets=0, ways=2)
        with pytest.raises(ValueError):
            SetAssociativeArray(num_sets=2, ways=0)


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, lines):
        l1 = small_l1(banks=1, sets=2, ways=4)
        for line in lines:
            l1.load_parts(line_address(line))
        assert l1.occupancy() <= 8

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_accessed_line_is_resident_and_tags_unique(self, lines):
        """After an access the line is resident; valid tags per set stay unique."""
        l1 = small_l1(banks=1, sets=2, ways=4)
        array = l1.banks[0].array
        for line in lines:
            way = l1.load_parts(line_address(line))[1]
            assert l1.way_of(line_address(line)) == way
            valid = array.valid_tags(line % 2)
            assert len(valid) == len(set(valid))
