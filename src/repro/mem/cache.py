"""Set-associative cache tag arrays with LRU replacement.

The tag arrays are real, so hit/miss behaviour, conflict evictions, and
the dirty-line population the reconfiguration FSM must walk (Section V-E)
all emerge from the actual address streams the workloads generate.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from ..config import CacheConfig


class CacheArray:
    """Tags, dirty bits, and LRU state for one cache level.

    Per-set ``{line: [way, dirty]}`` dicts make tag matching O(1) (tags
    are unique within a set: ``fill`` refreshes instead of duplicating)
    and double as the recency order: every touch moves its entry to the
    end, so the least-recently-touched line is the dict's first key.
    A sorted free-way list keeps the "first invalid way" rule, so a line
    lands in the same way it would in a hardware tag array scanned from
    way 0.

    Both per-set structures materialise lazily (``None`` until the set
    is first filled): constructing the array costs two ``[None] * sets``
    lists instead of thousands of dicts, which matters because every
    simulation builds a fresh hierarchy and tiny-workload runs take
    single-digit milliseconds.
    """

    __slots__ = ("config", "sets", "ways", "line_bytes", "_lru", "_free",
                 "hits", "misses")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.sets = config.sets
        self.ways = config.ways
        self.line_bytes = config.line_bytes
        #: Per set: resident line -> [way, dirty], ordered oldest-first;
        #: ``None`` until the set is first filled.
        self._lru: List[Optional[Dict[int, list]]] = [None] * self.sets
        #: Per set: invalid way indices, ascending; ``None`` = all free.
        self._free: List[Optional[List[int]]] = [None] * self.sets
        self.hits = 0
        self.misses = 0

    # -- operations ---------------------------------------------------------

    def lookup(self, line_addr: int, is_store: bool = False) -> bool:
        """Probe; on a hit, updates LRU (and dirty for stores)."""
        line = line_addr // self.line_bytes
        lru = self._lru[line % self.sets]
        if lru is not None:
            entry = lru.pop(line, None)
            if entry is not None:
                lru[line] = entry  # reinsert at the end: most recent
                if is_store:
                    entry[1] = True
                self.hits += 1
                return True
        self.misses += 1
        return False

    def fill(self, line_addr: int,
             dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install a line, evicting the LRU way if the set is full.

        Returns the victim as ``(line address, dirty)``, or ``None`` when
        nothing was evicted.
        """
        line = line_addr // self.line_bytes
        s = line % self.sets
        lru = self._lru[s]
        if lru is None:
            lru = self._lru[s] = {}
            free = self._free[s] = list(range(self.ways))
        else:
            entry = lru.pop(line, None)
            if entry is not None:
                # already present (e.g. racing fills) — refresh
                lru[line] = entry
                if dirty:
                    entry[1] = True
                return None
            free = self._free[s]
        evicted = None
        if free:
            victim = free.pop(0)    # lowest invalid way
        else:
            old_line, old_entry = next(iter(lru.items()))  # oldest touch
            del lru[old_line]
            victim = old_entry[0]
            evicted = (old_line * self.line_bytes, old_entry[1])
        lru[line] = [victim, dirty]
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns whether it was dirty.

        Invalidation does not count as a touch for LRU purposes.
        """
        line = line_addr // self.line_bytes
        s = line % self.sets
        lru = self._lru[s]
        if lru is None:
            return False
        entry = lru.pop(line, None)
        if entry is None:
            return False
        # A resident line implies fill ran on this set, so _free exists.
        insort(self._free[s], entry[0])
        return entry[1]

    # -- bulk state used by reconfiguration ---------------------------------

    def resident_lines(self, ways: Optional[slice] = None) -> Tuple[int, int]:
        """(valid lines, dirty lines) resident in the selected ways."""
        cols = (range(self.ways) if ways is None
                else range(*ways.indices(self.ways)))
        wanted = frozenset(cols)
        total = dirty = 0
        for lru in self._lru:
            if not lru:
                continue
            for entry in lru.values():
                if entry[0] in wanted:
                    total += 1
                    if entry[1]:
                        dirty += 1
        return total, dirty

    def flush_ways(self, ways: slice) -> Tuple[int, int]:
        """Invalidate the selected ways; returns (lines walked, dirty)."""
        total, dirty = self.resident_lines(ways)
        wanted = frozenset(range(*ways.indices(self.ways)))
        for s, lru in enumerate(self._lru):
            if not lru:
                continue
            doomed = [(line, entry[0]) for line, entry in lru.items()
                      if entry[0] in wanted]
            if doomed:
                free = self._free[s]
                for line, way in doomed:
                    del lru[line]
                    free.append(way)
                free.sort()
        return total, dirty

    def warm_fraction(self) -> float:
        resident = sum(len(lru) for lru in self._lru if lru)
        return resident / (self.sets * self.ways)

    # -- statistics ---------------------------------------------------------

    def stats(self) -> dict:
        accesses = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.misses / accesses if accesses else 0.0,
        }
