"""Generic set-associative storage array, held in flat slabs.

:class:`SetAssociativeArray` holds the state shared by the L1 banks and the
L2 cache: tags, validity, dirtiness and LRU recency.  It stores *metadata
only* — the reproduction is a timing/energy model, so no data bytes are
kept.  The array itself offers lookups and read-only observers; the two
miss paths (:meth:`repro.cache.l1_cache.L1DataCache._miss` and
:meth:`repro.cache.l2_cache.L2Cache.access`) choose the victim and write
the slabs directly.

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
  first and the last way last, the initial order of the stack.

Lines are never invalidated, so the invalid ways of a set are exactly its
never-used ways, which carry its smallest stamps in stack order: "the least
recently used invalid way, else the least recently used way" is simply the
smallest stamp.  An excluded way is masked with ``NEVER_VICTIM`` (the
largest 64-bit value) before taking the minimum.
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import List, Optional

#: stamp that loses every LRU comparison (masks an excluded way)
NEVER_VICTIM = (1 << 63) - 1
#: stamp of way 0 of a never-used set (way ``w`` starts at ``NEW_WAY - w``)
NEW_WAY = -(1 << 62) - 1

_ZERO = array("q", [0])
#: ways -> the stamps of one never-used set (repeated per set)
_FRESH_SET: dict = {}


class SetAssociativeArray:
    """A set-associative array of ``num_sets`` sets with ``ways`` ways each.

    Replacement is true LRU, preferring invalid ways (see the module
    docstring); the L1 miss path also masks the way the 2-bit way-table
    encoding (Sec. V) cannot name for the line being filled.
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
        return self.find_way(set_index, tag, False)

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
