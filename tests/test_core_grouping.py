"""Tests for Page-Based Memory Access Grouping: requests, Input Buffer and
Arbitration Unit."""

import pytest

from repro.core.arbitration import ArbitrationUnit
from repro.core.input_buffer import InputBuffer
from repro.core.request import AccessKind, MemoryAccessRequest
from repro.core.way_table import WayTableEntry
from repro.memory.address import DEFAULT_LAYOUT
from repro.stats import StatCounters

layout = DEFAULT_LAYOUT


def load_request(page: int, line: int, offset: int = 0, cycle: int = 0, tag=None):
    return MemoryAccessRequest(
        kind=AccessKind.LOAD,
        virtual_address=layout.compose_line(page, line, offset),
        arrival_cycle=cycle,
        tag=tag,
    )


def mbe_request(page: int, line: int):
    return MemoryAccessRequest(
        kind=AccessKind.MBE,
        virtual_address=layout.compose_line(page, line),
        size=layout.line_bytes,
    )


class TestMemoryAccessRequest:
    def test_field_accessors(self):
        request = load_request(5, 9, 16)
        assert request.is_load and not request.is_store and not request.is_mbe
        assert request.virtual_page == 5
        assert request.line_in_page == 9
        assert request.bank_index == 9 % 4
        assert request.physical_address is None

    def test_attach_translation(self):
        request = load_request(5, 9, 16)
        request.attach_translation(0x777)
        assert layout.page_id(request.physical_address) == 0x777
        assert layout.page_offset(request.physical_address) == layout.page_offset(
            request.virtual_address
        )

    def test_line_and_subblock_relations(self):
        a = load_request(5, 9, 0)
        b = load_request(5, 9, 8)
        c = load_request(5, 9, 40)
        d = load_request(5, 10, 0)
        assert a.same_line_as(b) and a.same_subblock_pair_as(b)
        assert a.same_line_as(c) and not a.same_subblock_pair_as(c)
        assert a.virtual_page == d.virtual_page and not a.same_line_as(d)

    def test_unique_request_ids(self):
        ids = {load_request(0, 0).request_id for _ in range(10)}
        assert len(ids) == 10


class TestInputBuffer:
    def test_groups_by_leader_page(self):
        buffer = InputBuffer()
        buffer.add_load(load_request(1, 0))
        buffer.add_load(load_request(2, 0))
        buffer.add_load(load_request(1, 5))
        group = buffer.select_group()
        assert group.virtual_page == 1
        assert [request.line_in_page for request in group.members] == [0, 5]

    def test_held_loads_have_priority_over_new(self):
        buffer = InputBuffer()
        buffer.add_load(load_request(1, 0))
        buffer.select_group()
        buffer.retire([])           # nothing serviced
        buffer.end_cycle()          # load from page 1 becomes "held"
        buffer.add_load(load_request(2, 0))
        group = buffer.select_group()
        assert group.virtual_page == 1

    def test_mbe_lowest_priority_but_joins_matching_group(self):
        buffer = InputBuffer()
        buffer.add_mbe(mbe_request(3, 0))
        buffer.add_load(load_request(3, 4))
        group = buffer.select_group()
        assert group.virtual_page == 3
        assert group.mbe is not None
        assert group.members[0].is_load  # the load is the leader

    def test_mbe_alone_forms_group(self):
        buffer = InputBuffer()
        buffer.add_mbe(mbe_request(9, 0))
        group = buffer.select_group()
        assert group.virtual_page == 9 and group.mbe is not None

    def test_retire_and_end_cycle(self):
        buffer = InputBuffer(held_capacity=2)
        first = load_request(1, 0)
        second = load_request(2, 0)
        buffer.add_load(first)
        buffer.add_load(second)
        group = buffer.select_group()
        buffer.retire(group.members)
        held = buffer.end_cycle()
        assert held == 1                       # the page-2 load is carried over
        assert buffer.select_group().members == [second]

    def test_arrival_slots_per_cycle(self):
        buffer = InputBuffer()
        for page in range(InputBuffer.new_loads_per_cycle):
            buffer.add_load(load_request(page, 0))
        with pytest.raises(RuntimeError):
            buffer.add_load(load_request(9, 0))

    def test_overflow_cycle_counted_above_held_capacity(self):
        stats = StatCounters()
        buffer = InputBuffer(held_capacity=1, stats=stats)
        for page in range(3):
            buffer.add_load(load_request(page, 0))
        buffer.select_group()
        buffer.retire([])
        assert buffer.end_cycle() == 3
        assert stats["input_buffer.overflow_cycle"] == 1

    def test_single_mbe_slot(self):
        buffer = InputBuffer()
        buffer.add_mbe(mbe_request(1, 0))
        assert not buffer.can_accept_mbe()
        with pytest.raises(RuntimeError):
            buffer.add_mbe(mbe_request(2, 0))

    def test_add_load_type_checked(self):
        buffer = InputBuffer()
        with pytest.raises(ValueError):
            buffer.add_load(mbe_request(0, 0))
        with pytest.raises(ValueError):
            buffer.add_mbe(load_request(0, 0))

    def test_empty_buffer_selects_nothing(self):
        buffer = InputBuffer()
        assert buffer.select_group() is None
        assert buffer.empty

    def test_page_comparison_events_counted(self):
        stats = StatCounters()
        buffer = InputBuffer(stats=stats)
        buffer.add_load(load_request(1, 0))
        buffer.add_load(load_request(1, 1))
        buffer.add_load(load_request(2, 0))
        buffer.select_group()
        assert stats["input_buffer.page_compare"] == 2


class TestArbitrationUnit:
    def _group(self, *requests):
        buffer = InputBuffer()
        for request in requests:
            if request.is_mbe:
                buffer.add_mbe(request)
            else:
                buffer.add_load(request)
        return buffer.select_group()

    def test_distributes_over_banks(self):
        arb = ArbitrationUnit()
        group = self._group(load_request(1, 0), load_request(1, 1), load_request(1, 2))
        result = arb.arbitrate(group)
        assert len(result.bank_requests) == 3
        assert {br.bank for br in result.bank_requests} == {0, 1, 2}
        assert len(result.serviced) == 3

    def test_bank_conflict_rejects_lower_priority(self):
        arb = ArbitrationUnit(merge_granularity="none")
        group = self._group(load_request(1, 0), load_request(1, 4))  # both bank 0
        result = arb.arbitrate(group)
        assert len(result.bank_requests) == 1
        assert len(result.rejected) == 1

    def test_same_line_loads_merge(self):
        arb = ArbitrationUnit()
        group = self._group(load_request(1, 0, 0), load_request(1, 0, 8))
        result = arb.arbitrate(group)
        assert len(result.bank_requests) == 1
        assert result.merged_pairs == 1
        assert len(result.serviced_loads) == 2

    def test_subblock_pair_granularity(self):
        arb = ArbitrationUnit(merge_granularity="subblock_pair")
        group = self._group(load_request(1, 0, 0), load_request(1, 0, 48))
        result = arb.arbitrate(group)
        # Same line but different sub-block pair: cannot merge, bank conflict.
        assert result.merged_pairs == 0
        assert len(result.rejected) == 1

    def test_line_granularity_merges_across_subblocks(self):
        arb = ArbitrationUnit(merge_granularity="line")
        group = self._group(load_request(1, 0, 0), load_request(1, 0, 48))
        result = arb.arbitrate(group)
        assert result.merged_pairs == 1

    def test_result_bus_limit(self):
        arb = ArbitrationUnit(result_buses=2, merge_granularity="none")
        group = self._group(*(load_request(1, line) for line in range(4)))
        result = arb.arbitrate(group)
        assert len(result.serviced_loads) == 2
        assert len(result.rejected) == 2

    def test_merge_window_limits_comparisons(self):
        arb = ArbitrationUnit(merge_window=1)
        group = self._group(
            load_request(1, 0, 0),
            load_request(1, 1, 0),
            load_request(1, 0, 8),  # same line as leader but outside window
        )
        result = arb.arbitrate(group)
        assert result.merged_pairs == 0

    def test_mbe_takes_bank_without_result_bus(self):
        arb = ArbitrationUnit(result_buses=4)
        group = self._group(
            load_request(1, 1), load_request(1, 2), load_request(1, 3),
            load_request(1, 5), mbe_request(1, 0),
        )
        result = arb.arbitrate(group)
        writes = [br for br in result.bank_requests if br.is_write]
        assert len(writes) == 1 and writes[0].bank == 0

    def test_mbe_bank_conflict_rejected(self):
        arb = ArbitrationUnit()
        group = self._group(load_request(1, 0), mbe_request(1, 4))  # both bank 0
        result = arb.arbitrate(group)
        assert group.mbe in result.rejected

    def test_way_hints_assigned_from_entry(self):
        arb = ArbitrationUnit()
        entry = WayTableEntry()
        entry.update(1, way=2)
        group = self._group(load_request(1, 1), load_request(1, 2))
        result = arb.arbitrate(group, way_entry=entry)
        hints = {br.primary.line_in_page: br.way_hint for br in result.bank_requests}
        assert hints[1] == 2
        assert hints[2] is None

    def test_merged_loads_share_way_hint(self):
        arb = ArbitrationUnit()
        entry = WayTableEntry()
        entry.update(1, way=3)
        group = self._group(load_request(1, 1, 0), load_request(1, 1, 8))
        result = arb.arbitrate(group, way_entry=entry)
        assert result.bank_requests[0].way_hint == 3
        assert all(req.way_hint == 3 for req in result.serviced_loads)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ArbitrationUnit(result_buses=0)
        with pytest.raises(ValueError):
            ArbitrationUnit(merge_window=-1)
        with pytest.raises(ValueError):
            ArbitrationUnit(merge_granularity="bogus")
