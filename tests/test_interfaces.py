"""Tests for the three L1 interface models (Table I)."""

import pytest

from repro.interfaces.base_1ldst import BaselineSingleInterface
from repro.interfaces.base_2ld1st import BaselineDualLoadInterface
from repro.interfaces.malec import MalecInterface
from repro.memory.address import DEFAULT_LAYOUT
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

layout = DEFAULT_LAYOUT


def addr(page: int, line: int, offset: int = 0) -> int:
    return layout.compose_line(page, line, offset)


def build(interface_cls, **kwargs):
    stats = StatCounters()
    hierarchy = MemoryHierarchy(stats=stats)
    translation = TLBHierarchy(stats=stats)
    interface = interface_cls(hierarchy, translation, stats=stats, **kwargs)
    return stats, interface


def run_cycles(interface, cycles, start=0):
    """Advance an interface through idle cycles, collecting completions."""
    completions = []
    for cycle in range(start, start + cycles):
        interface.begin_cycle(cycle)
        completions.extend(interface.tick(cycle))
    return completions


class TestSlotAccounting:
    def test_base1ldst_single_shared_slot(self):
        _, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        assert interface.reserve_load_slot()
        assert not interface.reserve_load_slot()
        assert not interface.reserve_store_slot()
        interface.begin_cycle(1)
        assert interface.reserve_store_slot()

    def test_base2ld1st_two_loads_one_store(self):
        _, interface = build(BaselineDualLoadInterface)
        interface.begin_cycle(0)
        assert interface.reserve_load_slot()
        assert interface.reserve_load_slot()
        assert not interface.reserve_load_slot()
        assert interface.reserve_store_slot()
        assert not interface.reserve_store_slot()

    def test_malec_one_load_plus_two_flexible(self):
        _, interface = build(MalecInterface)
        interface.begin_cycle(0)
        assert interface.reserve_load_slot()
        assert interface.reserve_load_slot()
        assert interface.reserve_store_slot()
        assert not interface.reserve_store_slot()
        assert not interface.reserve_load_slot()


class TestBaselineSingle:
    def test_load_completes_after_hit_latency(self):
        stats, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        interface.submit_load("ld0", addr(1, 0), 4, 0)
        (tag, ready), = interface.tick(0)
        assert tag == "ld0"
        assert ready > 0
        # A second access to the same line is an L1 hit with 2-cycle latency.
        interface.begin_cycle(1)
        interface.submit_load("ld1", addr(1, 0), 4, 1)
        (_, ready_hit), = interface.tick(1)
        assert ready_hit == 1 + 2

    def test_one_access_per_cycle(self):
        stats, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.submit_load("b", addr(1, 1), 4, 0)
        assert len(interface.tick(0)) == 1
        interface.begin_cycle(1)
        assert len(interface.tick(1)) == 1

    def test_every_load_translates_individually(self):
        stats, interface = build(BaselineSingleInterface)
        for cycle in range(3):
            interface.begin_cycle(cycle)
            interface.submit_load(f"ld{cycle}", addr(1, cycle), 4, cycle)
            interface.tick(cycle)
        assert stats["utlb.lookup"] == 3

    def test_store_commit_reaches_cache_via_merge_buffer(self):
        stats, interface = build(BaselineSingleInterface, mb_entries=1)
        # Two committed stores to different lines force an MBE eviction.
        for index in range(2):
            cycle = index
            interface.begin_cycle(cycle)
            interface.submit_store(f"st{index}", addr(2, index), 4, cycle)
            interface.commit_store(f"st{index}", cycle)
            interface.tick(cycle)
        run_cycles(interface, 4, start=2)
        assert stats["interface.mbe_written"] >= 1

    def test_finalize_drains_all_stores(self):
        stats, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        interface.submit_store("st", addr(3, 0), 4, 0)
        interface.commit_store("st", 0)
        interface.finalize(10)
        assert stats["interface.mbe_written"] == 1
        assert interface.quiescent()


class TestBaselineDual:
    def test_two_loads_serviced_in_one_cycle(self):
        stats, interface = build(BaselineDualLoadInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.submit_load("b", addr(1, 1), 4, 0)
        assert len(interface.tick(0)) == 2

    def test_third_load_waits_for_next_cycle(self):
        stats, interface = build(BaselineDualLoadInterface)
        interface.begin_cycle(0)
        for i, tag in enumerate(("a", "b", "c")):
            interface.submit_load(tag, addr(1, 4 * i), 4, 0)  # all map to bank 0
        assert [tag for tag, _ in interface.tick(0)] == ["a", "b"]
        interface.begin_cycle(1)
        assert [tag for tag, _ in interface.tick(1)] == ["c"]

    def test_bank_port_limit_defers_writeback(self):
        stats, interface = build(BaselineDualLoadInterface, mb_entries=1)
        interface.begin_cycle(0)
        interface.submit_store("st0", addr(2, 0), 4, 0)
        interface.commit_store("st0", 0)
        interface.tick(0)  # st0 -> merge buffer
        # Committing a store to another line evicts st0's line (bank 0)
        # while two loads take both read ports of bank 0: the write waits.
        interface.begin_cycle(1)
        interface.submit_store("st1", addr(2, 4), 4, 1)
        interface.commit_store("st1", 1)
        interface.submit_load("a", addr(1, 0), 4, 1)
        interface.submit_load("b", addr(1, 4), 4, 1)
        assert len(interface.tick(1)) == 2
        assert stats["interface.mbe_queued"] == 1
        assert stats["interface.mbe_written"] == 0
        interface.begin_cycle(2)
        interface.tick(2)
        assert stats["interface.mbe_written"] == 1

    def test_translations_counted_per_access(self):
        stats, interface = build(BaselineDualLoadInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.submit_load("b", addr(1, 1), 4, 0)
        interface.submit_store("s", addr(1, 2), 4, 0)
        interface.tick(0)
        assert stats["utlb.lookup"] == 3


class TestMalecInterface:
    def test_group_shares_single_translation(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        for i, tag in enumerate(("a", "b", "c")):
            interface.submit_load(tag, addr(1, i), 4, 0)
        completions = interface.tick(0)
        assert len(completions) == 3
        assert stats["utlb.lookup"] == 1          # one page translation
        assert stats["uwt.read"] + stats["wt.read"] >= 1

    def test_different_page_load_waits_for_next_cycle(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        interface.submit_load("same", addr(1, 0), 4, 0)
        interface.submit_load("other", addr(2, 0), 4, 0)
        first = interface.tick(0)
        assert [tag for tag, _ in first] == ["same"]
        interface.begin_cycle(1)
        second = interface.tick(1)
        assert [tag for tag, _ in second] == ["other"]

    def test_same_line_loads_merge_into_one_access(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0, 0), 4, 0)
        interface.submit_load("b", addr(1, 0, 8), 4, 0)
        completions = interface.tick(0)
        assert len(completions) == 2
        assert stats["interface.load_accesses"] == 1
        assert stats["interface.loads_merged"] == 1

    def test_second_visit_uses_reduced_access(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        interface.submit_load("first", addr(1, 0), 4, 0)
        interface.tick(0)
        stats.clear()
        interface.begin_cycle(1)
        interface.submit_load("again", addr(1, 0), 4, 1)
        interface.tick(1)
        assert stats["l1.reduced_access"] == 1
        assert stats["l1.tag_read"] == 0
        assert stats["malec.way_known"] == 1

    def test_way_known_after_first_touch(self):
        stats, interface = build(MalecInterface)
        for cycle in range(4):
            interface.begin_cycle(cycle)
            interface.submit_load(f"ld{cycle}", addr(1, cycle % 2), 4, cycle)
            interface.tick(cycle)
        # Each bank access is one prediction; only the two first touches miss.
        assert stats["malec.way_lookup"] == 4
        assert stats["malec.way_known"] == 2

    def test_wdu_mode_predicts_after_training(self):
        stats, interface = build(MalecInterface, way_determination="wdu", wdu_entries=8)
        interface.begin_cycle(0)
        interface.submit_load("first", addr(1, 0), 4, 0)
        interface.tick(0)
        interface.begin_cycle(1)
        interface.submit_load("again", addr(1, 0), 4, 1)
        interface.tick(1)
        assert stats["wdu.lookup"] >= 2
        assert stats["malec.way_known"] >= 1

    def test_no_way_determination_mode(self):
        stats, interface = build(MalecInterface, way_determination="none")
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.tick(0)
        assert stats["l1.reduced_access"] == 0
        assert stats["malec.way_lookup"] == 0

    def test_invalid_way_determination_rejected(self):
        with pytest.raises(ValueError):
            build(MalecInterface, way_determination="oracle")

    def test_mbe_travels_through_input_buffer(self):
        stats, interface = build(MalecInterface, mb_entries=1)
        cycle = 0
        for index in range(2):
            interface.begin_cycle(cycle)
            interface.submit_store(f"st{index}", addr(7, index), 4, cycle)
            interface.commit_store(f"st{index}", cycle)
            interface.tick(cycle)
            cycle += 1
        run_cycles(interface, 6, start=cycle)
        assert stats["input_buffer.mbe_in"] >= 1
        assert stats["interface.mbe_written"] >= 1

    def test_split_buffer_lookups_counted(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.tick(0)
        assert stats["sb.lookup_offset"] == 1
        assert stats["sb.lookup_page_shared"] == 1
        assert stats["mb.lookup_offset"] == 1

    def test_finalize_flushes_mbe_backlog(self):
        stats, interface = build(MalecInterface, mb_entries=1)
        for index in range(3):
            interface.begin_cycle(index)
            interface.submit_store(f"st{index}", addr(8, index), 4, index)
            interface.commit_store(f"st{index}", index)
            interface.tick(index)
        interface.finalize(100)
        assert interface.quiescent()
        assert stats["interface.mbe_written"] == 3

    def test_back_pressure_from_input_buffer(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        # Fill this cycle's arrival slots without letting the buffer drain.
        for index in range(4):
            assert interface.can_accept_load()
            interface.submit_load(f"ld{index}", addr(index, 0), 4, 0)
        assert not interface.can_accept_load()


class TestLoadBackPressure:
    """Each interface's ``can_accept_load``: the one back-pressure rule."""

    def _submit(self, interface, count, cycle=0, page_of=lambda i: 1):
        for index in range(count):
            assert interface.can_accept_load()
            interface.submit_load(
                f"ld{cycle}.{index}", addr(page_of(index), index), 4, cycle
            )

    @pytest.mark.parametrize(
        "interface_cls",
        [BaselineSingleInterface, BaselineDualLoadInterface, MalecInterface],
    )
    def test_full_load_queue_stalls(self, interface_cls):
        _, interface = build(interface_cls, lq_entries=2)
        interface.begin_cycle(0)
        self._submit(interface, 2)
        assert not interface.can_accept_load()

    def test_base1ldst_queues_four_loads(self):
        _, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        self._submit(interface, 4)
        assert not interface.can_accept_load()
        interface.tick(0)  # the single port services one
        interface.begin_cycle(1)
        assert interface.can_accept_load()

    def test_base2ld1st_queues_two_cycles_of_loads(self):
        _, interface = build(BaselineDualLoadInterface)
        interface.begin_cycle(0)
        self._submit(interface, 4)
        assert not interface.can_accept_load()
        interface.tick(0)  # both read ports service one each
        interface.begin_cycle(1)
        self._submit(interface, 2, cycle=1)
        assert not interface.can_accept_load()

    def test_malec_arrival_slots_reset_each_cycle(self):
        _, interface = build(MalecInterface)
        interface.begin_cycle(0)
        self._submit(interface, 4)
        assert not interface.can_accept_load()
        interface.tick(0)  # one page group: all four serviced
        interface.begin_cycle(1)
        assert interface.can_accept_load()

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_malec_stalls_only_when_held_loads_overflow(self, capacity):
        # Loads on distinct pages: one page group per cycle, the rest held.
        _, interface = build(MalecInterface, input_buffer_capacity=capacity)
        interface.begin_cycle(0)
        self._submit(interface, capacity + 1, page_of=lambda i: i + 1)
        interface.tick(0)  # held == capacity: storage suffices
        interface.begin_cycle(1)
        assert interface.can_accept_load()

        _, interface = build(MalecInterface, input_buffer_capacity=capacity)
        interface.begin_cycle(0)
        self._submit(interface, capacity + 2, page_of=lambda i: i + 1)
        interface.tick(0)  # held == capacity + 1: address computation stalls
        interface.begin_cycle(1)
        assert not interface.can_accept_load()

