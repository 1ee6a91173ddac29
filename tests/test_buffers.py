"""Tests for the load queue, store buffer and merge buffer, and for the
store-to-load forwarding search over them
(:meth:`repro.interfaces.base.BaseL1Interface._forwarding_lookups`)."""

import pytest

from repro.buffers.load_queue import LoadQueue
from repro.buffers.merge_buffer import MergeBuffer
from repro.buffers.store_buffer import StoreBuffer
from repro.interfaces.base_1ldst import BaselineSingleInterface
from repro.memory.address import DEFAULT_LAYOUT
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

layout = DEFAULT_LAYOUT


class TestLoadQueue:
    def test_allocate_issued_and_complete_release(self):
        lq = LoadQueue(entries=2)
        lq.allocate_issued("a", 0x1000, cycle=0)
        lq.allocate_issued("b", 0x2000, cycle=0)
        assert lq.occupancy == 2
        lq.complete_release("a", 3)
        assert lq.occupancy == 1

    def test_overflow_raises(self):
        lq = LoadQueue(entries=1)
        lq.allocate_issued("a", 0, 0)
        with pytest.raises(RuntimeError):
            lq.allocate_issued("b", 0, 0)

    def test_duplicate_tag_rejected(self):
        lq = LoadQueue(entries=4)
        lq.allocate_issued("a", 0, 0)
        with pytest.raises(ValueError):
            lq.allocate_issued("a", 0, 0)

    def test_latency_charged_at_completion(self):
        stats = StatCounters()
        lq = LoadQueue(stats=stats)
        lq.allocate_issued("a", 0, cycle=2)
        lq.allocate_issued("b", 0, cycle=4)
        lq.complete_release("a", 7)
        assert stats["lq.total_latency"] == 5
        assert stats["lq.completed"] == 1
        lq.complete_release("b", 5)
        assert stats["lq.total_latency"] == 6
        assert stats["lq.completed"] == 2

    def test_allocate_charge_left_to_caller(self):
        stats = StatCounters()
        LoadQueue(stats=stats).allocate_issued("a", 0, 0)
        assert stats["lq.allocate"] == 0

    def test_unknown_tag_completion_raises(self):
        lq = LoadQueue()
        with pytest.raises(KeyError):
            lq.complete_release("missing", 3)
        lq.allocate_issued("a", 0, 0)
        lq.complete_release("a", 3)
        with pytest.raises(KeyError):
            lq.complete_release("a", 4)  # already released

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            LoadQueue(entries=0)


class TestStoreBuffer:
    def test_insert_and_commit_drain(self):
        sb = StoreBuffer(entries=4)
        sb.insert("s1", 0x100, 4, cycle=0)
        sb.insert("s2", 0x200, 4, cycle=1)
        assert sb.occupancy == 2
        assert sb.pop_committed() is None
        sb.mark_committed("s1")
        assert sb.committed_count == 1
        drained = sb.pop_committed()
        assert drained.tag == "s1"
        assert sb.occupancy == 1
        assert sb.committed_count == 0

    def test_oldest_committed_drains_first(self):
        sb = StoreBuffer()
        for tag in ("a", "b", "c"):
            sb.insert(tag, 0x100, 4, 0)
        sb.mark_committed("c")
        sb.mark_committed("b")
        assert [sb.pop_committed().tag, sb.pop_committed().tag] == ["b", "c"]

    def test_overflow(self):
        sb = StoreBuffer(entries=1)
        sb.insert("s1", 0, 4, 0)
        assert sb.full
        with pytest.raises(RuntimeError):
            sb.insert("s2", 0, 4, 0)

    def test_mark_committed_unknown_tag(self):
        sb = StoreBuffer()
        assert sb.mark_committed("missing") is None

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            StoreBuffer(entries=0)


class TestMergeBuffer:
    def test_same_line_stores_merge(self):
        stats = StatCounters()
        mb = MergeBuffer(entries=2, stats=stats)
        assert mb.commit_store(0x100, 4) is None
        assert mb.commit_store(0x104, 4) is None  # same 64-byte line
        assert mb.occupancy == 1
        assert stats["mb.allocate"] == 1
        assert stats["mb.merged_store"] == 1

    def test_eviction_when_full(self):
        mb = MergeBuffer(entries=2)
        mb.commit_store(layout.compose_line(1, 0), 4)
        mb.commit_store(layout.compose_line(1, 1), 4)
        evicted = mb.commit_store(layout.compose_line(1, 2), 4)
        assert evicted is not None
        assert evicted.line_address == layout.compose_line(1, 0)
        assert mb.occupancy == 2

    def test_drain_returns_everything(self):
        mb = MergeBuffer(entries=4)
        mb.commit_store(layout.compose_line(2, 0), 4)
        mb.commit_store(layout.compose_line(2, 1), 4)
        drained = mb.drain()
        assert len(drained) == 2
        assert mb.occupancy == 0

    def test_store_count_accumulates(self):
        mb = MergeBuffer()
        mb.commit_store(0x200, 4)
        mb.commit_store(0x208, 8)
        (entry,) = mb.drain()
        assert entry.store_count == 2
        assert entry.dirty_bytes == 12

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            MergeBuffer(entries=0)


class TestForwardingLookups:
    """The per-load SB/MB search every interface runs (energy bookkeeping)."""

    def _interface(self):
        stats = StatCounters()
        interface = BaselineSingleInterface(
            MemoryHierarchy(stats=stats), TLBHierarchy(stats=stats), stats=stats
        )
        return stats, interface

    def _sb_hits(self, store_address, store_size, load_address, load_size):
        stats, interface = self._interface()
        interface.store_buffer.insert("s", store_address, store_size, 0)
        interface._forwarding_lookups(load_address, load_size, split=False)
        return stats["sb.forward_hit"]

    def test_store_overlap(self):
        assert self._sb_hits(0x100, 4, 0x100, 4) == 1  # identical bytes
        assert self._sb_hits(0x100, 4, 0x102, 2) == 1  # load inside the store
        assert self._sb_hits(0x100, 4, 0x0FE, 4) == 1  # straddles the start
        assert self._sb_hits(0x100, 8, 0x106, 4) == 1  # straddles the end

    def test_adjacent_accesses_do_not_forward(self):
        assert self._sb_hits(0x100, 4, 0x104, 4) == 0  # load right after
        assert self._sb_hits(0x100, 4, 0x0FC, 4) == 0  # load right before

    def test_youngest_overlapping_store_ends_the_search(self):
        stats, interface = self._interface()
        interface.store_buffer.insert("old", 0x100, 4, 0)
        interface.store_buffer.insert("new", 0x100, 4, 1)
        interface.store_buffer.insert("other", 0x300, 4, 2)
        interface._forwarding_lookups(0x100, 4, split=False)
        assert stats["sb.forward_hit"] == 1

    def test_merge_buffer_matches_whole_line(self):
        stats, interface = self._interface()
        interface.merge_buffer.commit_store(0x140, 4)
        for address in (0x140, 0x150, 0x17C):  # same 64-byte line
            interface._forwarding_lookups(address, 4, split=False)
        assert stats["mb.forward_hit"] == 3
        interface._forwarding_lookups(0x100, 4, split=False)
        interface._forwarding_lookups(0x180, 4, split=False)
        assert stats["mb.forward_hit"] == 3
        assert stats["sb.forward_hit"] == 0

    def test_split_vs_full_lookup_charges(self):
        stats, interface = self._interface()
        interface._forwarding_lookups(0x100, 4, split=False)
        assert stats["sb.lookup_full"] == stats["mb.lookup_full"] == 1
        assert stats["sb.lookup_offset"] == stats["mb.lookup_offset"] == 0
        interface._forwarding_lookups(0x100, 4, split=True)
        interface._forwarding_lookups(0x200, 4, split=True)
        assert stats["sb.lookup_full"] == stats["mb.lookup_full"] == 1
        assert stats["sb.lookup_offset"] == stats["mb.lookup_offset"] == 2
        assert stats["sb.forward_hit"] == stats["mb.forward_hit"] == 0

    def test_shared_page_lookup_charged_per_call(self):
        stats, interface = self._interface()
        interface.store_buffer.charge_shared_page_lookup()
        interface.merge_buffer.charge_shared_page_lookup()
        assert stats["sb.lookup_page_shared"] == 1
        assert stats["mb.lookup_page_shared"] == 1
