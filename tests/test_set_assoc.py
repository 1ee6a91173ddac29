"""Tests for the slab-backed set-associative array."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lru_model import ListLRUArray
from repro.cache.set_assoc import SetAssociativeArray


class TestLookupAndFill:
    def test_miss_then_hit(self):
        array = SetAssociativeArray(num_sets=4, ways=2)
        assert array.find_way(0, tag=7) is None
        way, evicted_tag, evicted_dirty = array.fill(0, tag=7)
        assert evicted_tag is None and not evicted_dirty
        assert array.find_way(0, tag=7) == way
        assert array.tag_of(0, way) == 7

    def test_fill_existing_refreshes_dirty_bit(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        way1, _, _ = array.fill(0, tag=1)
        way2, evicted_tag, _ = array.fill(0, tag=1, dirty=True)
        assert way1 == way2 and evicted_tag is None
        assert array.is_dirty(0, way1)
        array.fill(0, tag=1, dirty=False)  # a clean refill never cleans
        assert array.is_dirty(0, way1)

    def test_eviction_when_set_full(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        _, evicted_tag, _ = array.fill(0, tag=3)
        assert evicted_tag in (1, 2)
        assert array.occupancy() == 2

    def test_lru_eviction_order(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        array.find_way(0, tag=1)  # make tag 1 most recently used
        _, evicted_tag, _ = array.fill(0, tag=3)
        assert evicted_tag == 2

    def test_fresh_set_fills_from_the_last_way(self):
        """The LRU stack starts 0, 1, …: the last way is the first victim."""
        array = SetAssociativeArray(num_sets=2, ways=4)
        assert [array.fill(1, tag=tag)[0] for tag in range(4)] == [3, 2, 1, 0]

    def test_excluded_way_respected(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        for tag in range(4):
            array.fill(0, tag=tag)
        way, _, _ = array.fill(0, tag=99, excluded_way=2)
        assert way != 2

    def test_invalid_excluded_way_is_skipped(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        # Way 3 is the first victim of a fresh set; excluded, way 2 follows.
        assert array.fill(0, tag=5, excluded_way=3)[0] == 2

    def test_excluding_the_only_way_rejected(self):
        array = SetAssociativeArray(num_sets=1, ways=1)
        with pytest.raises(ValueError):
            array.fill(0, tag=5, excluded_way=0)

    def test_preferred_way(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        way, _, _ = array.fill(0, tag=5, preferred_way=3)
        assert way == 3

    def test_preferred_conflicts_with_excluded(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        with pytest.raises(ValueError):
            array.fill(0, tag=5, preferred_way=2, excluded_way=2)

    def test_probe_does_not_touch_replacement(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        assert array.probe(0, tag=1) is not None  # non-updating probe
        _, evicted_tag, _ = array.fill(0, tag=3)
        assert evicted_tag == 1  # tag 1 stayed LRU despite the probe


class TestDirtyAndInvalidate:
    def test_mark_dirty(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        way, _, _ = array.fill(0, tag=1)
        array.mark_dirty(0, way)
        assert array.is_dirty(0, way)

    def test_mark_dirty_invalid_line_rejected(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        with pytest.raises(ValueError):
            array.mark_dirty(0, 0)

    def test_invalidate(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        way, _, _ = array.fill(1, tag=9, dirty=True)
        assert array.invalidate(1, tag=9)
        assert array.find_way(1, tag=9) is None
        assert not array.is_valid(1, way) and not array.is_dirty(1, way)
        assert array.tag_of(1, way) is None
        assert not array.invalidate(1, tag=9)

    def test_invalidated_way_is_the_next_victim(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        for tag in range(4):
            array.fill(0, tag=tag)
        way = array.find_way(0, tag=3)  # most recently used, then dropped
        array.invalidate(0, tag=3)
        assert array.fill(0, tag=7)[0] == way

    def test_invalidate_all(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        array.fill(0, tag=1)
        array.fill(1, tag=2)
        array.invalidate_all()
        assert array.occupancy() == 0
        assert array.valid_mask(0) == [False, False]


class TestEviction:
    def test_fill_reports_the_evicted_tag_and_dirty_bit(self):
        array = SetAssociativeArray(num_sets=1, ways=1)
        array.fill(0, tag=1, dirty=True)
        way, evicted_tag, evicted_dirty = array.fill(0, tag=2)
        assert (way, evicted_tag, evicted_dirty) == (0, 1, True)
        assert not array.is_dirty(0, 0)


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


class TestAgainstListModel:
    """The slab array against the list-based LRU oracle of ``lru_model``."""

    @staticmethod
    def drive(num_sets: int, ways: int, seed: int, steps: int = 400) -> None:
        rng = random.Random(seed)
        array = SetAssociativeArray(num_sets=num_sets, ways=ways)
        model = ListLRUArray(num_sets, ways)
        tags = range(3 * ways)
        for step in range(steps):
            set_index = rng.randrange(num_sets)
            tag = rng.choice(tags)
            op = rng.random()
            context = (seed, step, set_index, tag)
            if op < 0.45:
                excluded = rng.randrange(ways) if ways > 1 and rng.random() < 0.5 else None
                dirty = rng.random() < 0.3
                assert array.fill(set_index, tag, dirty=dirty, excluded_way=excluded) == (
                    model.fill(set_index, tag, dirty=dirty, excluded_way=excluded)
                ), context
            elif op < 0.85:
                update = rng.random() < 0.7
                assert array.find_way(set_index, tag, update) == (
                    model.find_way(set_index, tag, update)
                ), context
            elif op < 0.98:
                assert array.invalidate(set_index, tag) == model.invalidate(
                    set_index, tag
                ), context
            else:
                array.invalidate_all()
                model.invalidate_all()
            for index in range(num_sets):
                assert array.valid_tags(index) == model.valid_tags(index), context
                assert [array.is_dirty(index, way) for way in range(ways)] == [
                    model.is_dirty(index, way) for way in range(ways)
                ], context

    @pytest.mark.parametrize(
        "num_sets,ways", [(1, 1), (1, 2), (2, 4), (3, 4), (1, 16), (4, 3)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_mix_matches_model(self, num_sets, ways, seed):
        self.drive(num_sets, ways, seed)


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, tags):
        array = SetAssociativeArray(num_sets=2, ways=4)
        for tag in tags:
            array.fill(tag % 2, tag)
        assert array.occupancy() <= 8

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_filled_tag_always_found_until_evicted(self, tags):
        """After a fill the tag is resident; valid tags per set stay unique."""
        array = SetAssociativeArray(num_sets=2, ways=4)
        for tag in tags:
            set_index = tag % 2
            array.fill(set_index, tag)
            assert array.find_way(set_index, tag) is not None
            valid = array.valid_tags(set_index)
            assert len(valid) == len(set(valid))
