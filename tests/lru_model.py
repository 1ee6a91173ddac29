"""A deliberately naive list-based LRU cache array, the oracle for the cache
miss paths (:meth:`repro.cache.l1_cache.L1DataCache._miss` and
:meth:`repro.cache.l2_cache.L2Cache.access`), which keep their state in the
stamp slabs of :class:`repro.cache.set_assoc.SetAssociativeArray`.

Each set is a list of ``[tag, dirty]`` ways (``None`` when invalid) plus a
recency stack of way numbers, most recently used first, that starts as
``0, 1, …, ways - 1``.  Every rule is spelled out the slow way: a use moves
the way to the front of the stack, and the victim is the least recently used
invalid way outside the excluded way, else the least recently used way
outside it.
"""

from __future__ import annotations


class ListLRUArray:
    def __init__(self, num_sets: int, ways: int) -> None:
        self.ways = ways
        self.lines = [[None] * ways for _ in range(num_sets)]
        self.stacks = [list(range(ways)) for _ in range(num_sets)]

    def _touch(self, set_index, way):
        stack = self.stacks[set_index]
        stack.remove(way)
        stack.insert(0, way)

    def find_way(self, set_index, tag, update_replacement=True):
        for way, line in enumerate(self.lines[set_index]):
            if line is not None and line[0] == tag:
                if update_replacement:
                    self._touch(set_index, way)
                return way
        return None

    def victim(self, set_index, excluded_way=None):
        lines = self.lines[set_index]
        oldest_first = list(reversed(self.stacks[set_index]))
        allowed = [way for way in oldest_first if way != excluded_way]
        invalid = [way for way in allowed if lines[way] is None]
        return (invalid or allowed)[0]

    def fill(self, set_index, tag, dirty=False, excluded_way=None):
        """Access ``tag``: a hit is touched and its dirty bit OR-ed with
        ``dirty``; a miss replaces :meth:`victim`.  Returns ``(way,
        evicted_tag, evicted_dirty)``, ``evicted_tag`` ``None`` when no
        valid line was displaced."""
        way = self.find_way(set_index, tag)
        if way is not None:
            self.lines[set_index][way][1] |= dirty
            return way, None, False
        way = self.victim(set_index, excluded_way)
        old = self.lines[set_index][way]
        self.lines[set_index][way] = [tag, dirty]
        self._touch(set_index, way)
        if old is None:
            return way, None, False
        return way, old[0], old[1]

    def valid_tags(self, set_index):
        return [line[0] for line in self.lines[set_index] if line is not None]

    def is_dirty(self, set_index, way):
        line = self.lines[set_index][way]
        return line is not None and line[1]
