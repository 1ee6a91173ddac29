"""Generic set-associative storage array, held in flat slabs.

:class:`SetAssociativeArray` implements the bookkeeping shared by the L1
banks and the L2 cache: tag match, fill with victim selection, eviction and
explicit invalidation.  It stores *metadata only* — the reproduction is a
timing/energy model, so no data bytes are kept, only tags, validity,
dirtiness and LRU recency.

State layout
------------
Every per-line field lives in one preallocated slab indexed by
``slot = set_index * ways + way``:

* ``_tags`` — the tag of the line in each slot (meaningful while valid);
* ``_valid`` / ``_dirty`` — one byte per slot (``bytearray``);
* ``_stamp`` — LRU recency: the array's stamp counter value at the slot's
  last use.  The victim of a set is the way with the smallest stamp.

``_tags`` and ``_stamp`` are ``array('q')`` slabs: a 1 MByte L2 has 16 K
slots, and building a 64-bit array by repetition is a copy, where a list of
that size costs a reference-count update per slot at every construction.

``_where`` maps a line key ``tag * num_sets + set_index`` (the line number
within the array) to its slot, so a lookup is one dict probe.

The stamps reproduce a per-set true-LRU recency stack that prefers invalid
ways, exactly:

* every use writes the next value of a counter shared by all sets (from 0
  up), which moves the way to the top of its set's order, so stamps are
  unique within a set and sorting a valid set by stamp gives the stack;
* a never-used way starts at ``NEW_WAY - way``, so a fresh set orders way 0
  first and the last way last, the initial order of the stack;
* invalidating a line subtracts ``INVALIDATED`` from its stamp: it keeps its
  place among the invalid ways, but sinks below every valid way.

Invalid ways thus always carry the smallest stamps of their set, ordered as
the stack orders them, and "the least recently used invalid way, else the
least recently used way" is simply the smallest stamp.  An excluded way is
masked with ``NEVER_VICTIM`` (the largest 64-bit value) before taking the
minimum.
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import List, Optional, Tuple

#: stamp that loses every LRU comparison (masks an excluded way)
NEVER_VICTIM = (1 << 63) - 1
#: stamp of way 0 of a never-used set (way ``w`` starts at ``NEW_WAY - w``)
NEW_WAY = -(1 << 62) - 1
#: offset that sinks an invalidated line below every valid line, but above
#: every never-used way
INVALIDATED = 1 << 61

_ZERO = array("q", [0])
#: ways -> the stamps of one never-used set (repeated per set)
_FRESH_SET: dict = {}


class SetAssociativeArray:
    """A set-associative array of ``num_sets`` sets with ``ways`` ways each.

    Replacement is true LRU, preferring invalid ways; an optional
    ``excluded_way`` on :meth:`fill` supports the 2-bit way-table encoding
    (Sec. V), which cannot name one way per line group.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        slots = num_sets * ways
        fresh = _FRESH_SET.get(ways)
        if fresh is None:
            fresh = _FRESH_SET[ways] = array("q", range(NEW_WAY, NEW_WAY - ways, -1))
        self._tags = _ZERO * slots
        self._valid = bytearray(slots)
        self._dirty = bytearray(slots)
        self._stamp = fresh * num_sets
        #: next LRU stamp (a C-level counter: one call, no attribute writes)
        self._tick = count().__next__
        #: line key (tag * num_sets + set_index) -> slot of every valid line
        self._where: dict = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_set(self, set_index: int) -> None:
        if set_index < 0 or set_index >= self.num_sets:
            raise ValueError(f"set index {set_index} outside 0..{self.num_sets - 1}")

    def _check_way(self, way: int) -> None:
        if way < 0 or way >= self.ways:
            raise ValueError(f"way {way} outside 0..{self.ways - 1}")

    def find_way(self, set_index: int, tag: int, update_replacement: bool = True):
        """Way holding ``tag`` in ``set_index`` or ``None``; a hit counts as a
        use for replacement unless ``update_replacement`` is false."""
        self._check_set(set_index)
        slot = self._where.get(tag * self.num_sets + set_index)
        if slot is None:
            return None
        if update_replacement:
            self._stamp[slot] = self._tick()
        return slot - set_index * self.ways

    def probe(self, set_index: int, tag: int):
        """:meth:`find_way` without disturbing replacement state."""
        return self.find_way(set_index, tag, update_replacement=False)

    def is_valid(self, set_index: int, way: int) -> bool:
        """Whether ``way`` of ``set_index`` holds a line."""
        self._check_set(set_index)
        self._check_way(way)
        return bool(self._valid[set_index * self.ways + way])

    def is_dirty(self, set_index: int, way: int) -> bool:
        """Dirty bit of ``way`` in ``set_index``."""
        self._check_set(set_index)
        self._check_way(way)
        return bool(self._dirty[set_index * self.ways + way])

    def tag_of(self, set_index: int, way: int) -> Optional[int]:
        """Tag held by ``way`` of ``set_index`` (``None`` when invalid)."""
        if not self.is_valid(set_index, way):
            return None
        return self._tags[set_index * self.ways + way]

    def valid_mask(self, set_index: int) -> List[bool]:
        """Validity of each way in ``set_index``."""
        self._check_set(set_index)
        base = set_index * self.ways
        return [bool(flag) for flag in self._valid[base : base + self.ways]]

    def valid_tags(self, set_index: int) -> List[int]:
        """Tags of the valid lines of ``set_index``, in way order."""
        self._check_set(set_index)
        base = set_index * self.ways
        return [
            self._tags[slot]
            for slot in range(base, base + self.ways)
            if self._valid[slot]
        ]

    def occupancy(self) -> int:
        """Total number of valid lines across the whole array."""
        return len(self._where)

    # ------------------------------------------------------------------
    # Replacement
    # ------------------------------------------------------------------
    def victim(self, set_index: int, excluded_way: Optional[int] = None) -> int:
        """Way a fill of ``set_index`` would replace (no state change).

        The least recently used invalid way that is not ``excluded_way``;
        when every allowed way is valid, the least recently used allowed way
        (see the module docstring for why that is the smallest stamp).
        """
        ways = self.ways
        if excluded_way is not None and ways == 1:
            raise ValueError("cannot exclude every way of a set")
        base = set_index * ways
        recency = self._stamp[base : base + ways]
        if excluded_way is not None:
            recency[excluded_way] = NEVER_VICTIM
        return recency.index(min(recency))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fill(
        self,
        set_index: int,
        tag: int,
        dirty: bool = False,
        excluded_way: Optional[int] = None,
        preferred_way: Optional[int] = None,
    ) -> Tuple[int, Optional[int], bool]:
        """Insert ``tag`` into ``set_index``.

        Returns ``(way, evicted_tag, evicted_dirty)``; ``evicted_tag`` is
        ``None`` when no valid line was displaced.  A tag already present is
        touched and its dirty bit OR-ed with ``dirty`` in place.  Otherwise
        the victim is ``preferred_way`` if given, else :meth:`victim`.
        """
        self._check_set(set_index)
        key = tag * self.num_sets + set_index
        base = set_index * self.ways
        slot = self._where.get(key)
        if slot is not None:
            self._stamp[slot] = self._tick()
            if dirty:
                self._dirty[slot] = 1
            return slot - base, None, False

        if preferred_way is not None:
            if preferred_way == excluded_way:
                raise ValueError("preferred way conflicts with excluded way")
            self._check_way(preferred_way)
            way = preferred_way
        else:
            way = self.victim(set_index, excluded_way)
        slot = base + way
        evicted_tag = None
        evicted_dirty = False
        if self._valid[slot]:
            evicted_tag = self._tags[slot]
            evicted_dirty = bool(self._dirty[slot])
            del self._where[evicted_tag * self.num_sets + set_index]
        self._valid[slot] = 1
        self._tags[slot] = tag
        self._dirty[slot] = dirty
        self._stamp[slot] = self._tick()
        self._where[key] = slot
        return way, evicted_tag, evicted_dirty

    def mark_dirty(self, set_index: int, way: int) -> None:
        """Set the dirty bit of an existing valid line."""
        if not self.is_valid(set_index, way):
            raise ValueError("cannot mark an invalid line dirty")
        self._dirty[set_index * self.ways + way] = 1

    def invalidate(self, set_index: int, tag: int) -> bool:
        """Invalidate ``tag`` if present; returns ``True`` when a line was dropped."""
        self._check_set(set_index)
        slot = self._where.pop(tag * self.num_sets + set_index, None)
        if slot is None:
            return False
        self._valid[slot] = 0
        self._dirty[slot] = 0
        self._stamp[slot] -= INVALIDATED
        return True

    def invalidate_all(self) -> None:
        """Invalidate every line."""
        stamp = self._stamp
        for slot in self._where.values():
            stamp[slot] -= INVALIDATED
        slots = self.num_sets * self.ways
        self._valid[:] = bytes(slots)
        self._dirty[:] = bytes(slots)
        self._where.clear()
