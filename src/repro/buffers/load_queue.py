"""Load queue.

The load queue (LQ, 40 entries in Table II) tracks every in-flight load from
dispatch until its data has returned and the load has committed.  In this
reproduction it provides the back-pressure that limits how many loads the
pipeline can have outstanding, and records per-load timing used for the
latency statistics.  Its energy is excluded from the paper's results (it is
the same for every configuration), so no lookup events are charged here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.stats import StatCounters


class LoadQueueEntry:
    """Book-keeping for one in-flight load (slotted: one entry per load)."""

    __slots__ = ("tag", "virtual_address", "dispatch_cycle", "issue_cycle", "complete_cycle")

    def __init__(
        self,
        tag: Any,
        virtual_address: int,
        dispatch_cycle: int,
        issue_cycle: Optional[int] = None,
        complete_cycle: Optional[int] = None,
    ) -> None:
        self.tag = tag
        self.virtual_address = virtual_address
        self.dispatch_cycle = dispatch_cycle
        self.issue_cycle = issue_cycle
        self.complete_cycle = complete_cycle


class LoadQueue:
    """Fixed-capacity queue of in-flight loads keyed by an opaque tag."""

    def __init__(self, entries: int = 40, stats: Optional[StatCounters] = None) -> None:
        if entries <= 0:
            raise ValueError("the load queue needs at least one entry")
        self.entries = entries
        self.stats = stats if stats is not None else StatCounters()
        self._entries: Dict[Any, LoadQueueEntry] = {}
        # Per-access counters resolved to integer slots once (hot path).
        self._h_allocate = self.stats.handle("lq.allocate")
        self._h_total_latency = self.stats.handle("lq.total_latency")
        self._h_completed = self.stats.handle("lq.completed")

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of loads currently tracked."""
        return len(self._entries)

    def allocate_issued(self, tag: Any, virtual_address: int, cycle: int) -> None:
        """Insert a load the cycle its address computation finishes.

        The interfaces submit a load in that same cycle, so dispatch and
        issue coincide.  The ``lq.allocate`` charge is left to the caller
        (the interfaces fold it into one fused submission bump).
        """
        if len(self._entries) >= self.entries:
            raise RuntimeError("load queue overflow")
        if tag in self._entries:
            raise ValueError(f"load {tag!r} already present in the load queue")
        self._entries[tag] = LoadQueueEntry(
            tag=tag,
            virtual_address=virtual_address,
            dispatch_cycle=cycle,
            issue_cycle=cycle,
        )

    def complete_release(self, tag: Any, cycle: int) -> None:
        """Record the load's data return and remove it from the queue.

        Charges the issue-to-completion latency to ``lq.total_latency`` and
        counts the load in ``lq.completed``.  An unknown tag raises
        ``KeyError``: a completion for a load that was never allocated (or
        was already released) is a scheduler defect that must surface
        immediately, not drift the statistics.
        """
        entry = self._entries.pop(tag)
        entry.complete_cycle = cycle
        issue_cycle = entry.issue_cycle
        if issue_cycle is not None:
            self.stats.bump(self._h_total_latency, cycle - issue_cycle)
            self.stats.bump(self._h_completed)
