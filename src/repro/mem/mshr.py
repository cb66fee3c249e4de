"""Miss-status-holding-register pools modelled as token heaps.

An MSHR is held from the moment a miss is accepted until its fill
completes.  When every entry is busy, the next request must wait for the
earliest release — that wait is the "cache-induced stall" of Figure 8 and
the mechanism behind the limited-MSHR effect of Section VII-B.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

from ..errors import MemoryModelError
from ..obs.attribution import NULL_ATTRIBUTION


class MshrPool:
    """A pool of ``size`` miss-status registers."""

    __slots__ = ("size", "name", "attr", "_busy", "acquires", "stall_cycles",
                 "stalled_acquires", "occupancy_hwm")

    def __init__(self, size: int, name: str = "mshr",
                 attribution=None) -> None:
        if size <= 0:
            raise MemoryModelError(f"{name}: pool size must be positive")
        self.size = size
        self.name = name
        self.attr = attribution if attribution is not None else NULL_ATTRIBUTION
        self._busy: List[float] = []  # heap of release times
        self.acquires = 0
        self.stall_cycles = 0.0
        self.stalled_acquires = 0
        #: Peak simultaneously-held entries (the Figure 8 occupancy limit).
        self.occupancy_hwm = 0

    def acquire(self, now: float) -> Tuple[float, float]:
        """Reserve an entry at or after ``now``.

        Returns ``(grant_time, stall)`` where ``stall`` is how long the
        requester had to wait for a free entry.  The entry must be released
        with :meth:`release` once the fill completes.

        The heap holds only entries still busy past the grant time, and
        each acquire is released before the pool's next acquire, so the
        granted entry plus the heap is the exact occupancy right now.
        """
        busy = self._busy
        while busy and busy[0] <= now:
            heappop(busy)
        if len(busy) < self.size:
            self.acquires += 1
            occupancy = len(busy) + 1
            if occupancy > self.occupancy_hwm:
                self.occupancy_hwm = occupancy
            return now, 0.0
        grant = busy[0]
        # Every release at or before the grant time frees an entry.
        while busy and busy[0] <= grant:
            heappop(busy)
        stall = grant - now
        self.stall_cycles += stall
        if self.attr.enabled:
            self.attr.charge("mshr", self.name, stall)
        self.stalled_acquires += 1
        self.acquires += 1
        occupancy = len(busy) + 1
        if occupancy > self.occupancy_hwm:
            self.occupancy_hwm = occupancy
        return grant, stall

    def release(self, at: float) -> None:
        """Mark one acquired entry busy until ``at``."""
        heappush(self._busy, at)

    @property
    def outstanding(self) -> int:
        return len(self._busy)

    def stats(self) -> dict:
        """Occupancy / stall accounting for ``level_stats`` and metrics."""
        return {
            "size": self.size,
            "acquires": self.acquires,
            "stalled_acquires": self.stalled_acquires,
            "stall_cycles": self.stall_cycles,
            "occupancy_hwm": self.occupancy_hwm,
        }
