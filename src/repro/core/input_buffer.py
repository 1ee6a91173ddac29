"""Input Buffer: Page-Based Memory Access Grouping (Sec. IV).

The Input Buffer receives loads that finished address computation and merge
buffer entries (MBEs) evicted towards the cache, prioritizes them and
identifies, each cycle, the group of entries that access the same virtual
page.  Only that group proceeds: its page id is translated once (a single
uTLB/TLB access) and the result is shared by every member.

Priorities, from high to low (Sec. IV):

1. loads held from previous cycles (oldest first),
2. loads finishing address computation this cycle (program order),
3. one evicted MBE (not time critical, its stores already committed).

Unmatched loads — and loads rejected by the Arbitration Unit because of bank
conflicts or result-bus limits — are held for the next cycle.  If the held
storage would overflow, address computation stalls (modelled through
:meth:`repro.interfaces.malec.MalecInterface.can_accept_load`, which reads
``held_capacity`` and ``new_loads_per_cycle`` here).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.core.request import MemoryAccessRequest
from repro.stats import StatCounters


@dataclass
class PageGroup:
    """The set of same-page requests selected for one cycle.

    Attributes
    ----------
    virtual_page:
        Page shared by every member; translated once for the whole group.
    members:
        Requests in priority order.  The first member is the leader whose
        page id was sent to the uTLB.
    mbe:
        The merge-buffer entry included in the group, if any (also present in
        ``members``).
    """

    virtual_page: int
    members: List[MemoryAccessRequest] = field(default_factory=list)
    mbe: Optional[MemoryAccessRequest] = None


class InputBuffer:
    """Priority buffer grouping pending accesses by virtual page.

    Parameters
    ----------
    held_capacity:
        Storage for loads left over from previous cycles.  The evaluated
        MALEC configuration uses storage for two loads (Sec. VI-A); the
        scalable design of Fig. 2a allows three.
    """

    #: loads that may arrive from address computation in one cycle
    new_loads_per_cycle = 4

    def __init__(
        self,
        held_capacity: int = 2,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if held_capacity < 0:
            raise ValueError("held capacity cannot be negative")
        self.held_capacity = held_capacity
        self.stats = stats if stats is not None else StatCounters()
        self._held: Deque[MemoryAccessRequest] = deque()
        self._new: List[MemoryAccessRequest] = []
        self._mbe: Optional[MemoryAccessRequest] = None
        # Per-cycle counters resolved to integer slots once (hot path).
        self._h_load_in = self.stats.handle("input_buffer.load_in")
        self._h_mbe_in = self.stats.handle("input_buffer.mbe_in")
        self._h_page_compare = self.stats.handle("input_buffer.page_compare")
        self._h_group_selected = self.stats.handle("input_buffer.group_selected")
        self._h_group_size = self.stats.handle("input_buffer.group_size")
        self._h_overflow_cycle = self.stats.handle("input_buffer.overflow_cycle")
        self._h_held_loads = self.stats.handle("input_buffer.held_loads")
        self._h_mbe_out = self.stats.handle("input_buffer.mbe_out")

    # ------------------------------------------------------------------
    # Back-pressure
    # ------------------------------------------------------------------
    def can_accept_mbe(self) -> bool:
        """True when the single MBE slot is free."""
        return self._mbe is None

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    def add_load(self, request: MemoryAccessRequest) -> None:
        """Submit a load that finished address computation this cycle."""
        if not request.is_load:
            raise ValueError("add_load expects a load request")
        if len(self._new) >= self.new_loads_per_cycle:
            raise RuntimeError("too many loads submitted this cycle")
        self._new.append(request)
        self.stats.bump(self._h_load_in)

    def add_mbe(self, request: MemoryAccessRequest) -> None:
        """Submit an evicted merge-buffer entry."""
        if not request.is_mbe:
            raise ValueError("add_mbe expects a merge-buffer entry")
        if self._mbe is not None:
            raise RuntimeError("the MBE slot is already occupied")
        self._mbe = request
        self.stats.bump(self._h_mbe_in)

    # ------------------------------------------------------------------
    # Page-group selection
    # ------------------------------------------------------------------
    def select_group(self) -> Optional[PageGroup]:
        """Identify this cycle's page group.

        The highest-priority entry becomes the leader; its virtual page id is
        what the interface sends to the uTLB.  Every other currently valid
        entry is compared against that page id (one narrow comparator per
        entry — counted for completeness even though the paper deems the
        energy negligible) and matching entries join the group.

        Returns ``None`` when nothing is waiting.
        """
        held = self._held
        new = self._new
        mbe = self._mbe
        if held:
            leader = held[0]
        elif new:
            leader = new[0]
        elif mbe is not None:
            leader = mbe
        else:
            return None
        page = leader.virtual_page
        group = PageGroup(virtual_page=page)
        members = group.members
        stats = self.stats
        compares = -1  # the leader compares against nobody
        for source in (held, new, (mbe,) if mbe is not None else ()):
            for request in source:
                compares += 1
                if request.virtual_page != page:
                    continue
                members.append(request)
                if request.is_mbe:
                    group.mbe = request
        if compares:  # integer sum: one bump of n is bit-identical to n bumps
            stats.bump(self._h_page_compare, compares)
        stats.bump(self._h_group_selected)
        stats.bump(self._h_group_size, len(members))
        return group

    # ------------------------------------------------------------------
    # End-of-cycle bookkeeping
    # ------------------------------------------------------------------
    def retire(self, serviced: List[MemoryAccessRequest]) -> None:
        """Remove requests that were serviced (sent to the cache) this cycle."""
        serviced_ids = {request.request_id for request in serviced}
        self._held = deque(
            request for request in self._held if request.request_id not in serviced_ids
        )
        self._new = [
            request for request in self._new if request.request_id not in serviced_ids
        ]
        if self._mbe is not None and self._mbe.request_id in serviced_ids:
            self._mbe = None
            self.stats.bump(self._h_mbe_out)

    def end_cycle(self) -> int:
        """Carry unserviced loads over to the next cycle.

        Returns the number of loads now held (the interface's
        ``can_accept_load`` stalls address computation when it exceeds
        ``held_capacity``).
        """
        if self._new:
            self._held.extend(self._new)
            self._new = []
        held = len(self._held)
        if held > self.held_capacity:
            self.stats.bump(self._h_overflow_cycle)
        self.stats.bump(self._h_held_loads, held)
        return held

    def take_mbe(self) -> Optional[MemoryAccessRequest]:
        """Remove and return the waiting MBE, if any (end-of-run drain)."""
        mbe = self._mbe
        self._mbe = None
        return mbe

    @property
    def empty(self) -> bool:
        """True when no loads and no MBE are waiting."""
        return not self._held and not self._new and self._mbe is None
