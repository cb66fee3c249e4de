"""Pure-Python replica of the memory hierarchy for the compiled path.

The interpreter's :class:`~repro.mem.hierarchy.MemorySystem` keeps its tag
arrays in numpy, which is the right shape for bulk state queries (the
reconfiguration FSM walks ways with slices) but a terrible shape for the
hot path: every ``access()`` call pays numpy scalar dispatch several times
over (``np.nonzero`` on an 8-wide row, ``np.argmin``, fancy indexing), and
backprop alone issues ~1.7M line requests.  The compiled evaluator swaps
in this module's :class:`FastMemorySystem`, which reproduces the numpy
model's behaviour *exactly*:

* identical LRU clocks, tie-breaks (first matching way, first invalid way,
  first-minimum stamp — the ``np.argmin`` convention), and dirty-bit
  updates, via a per-set ``{line: way}`` index plus way-major lists;
* identical timing chains (``_from_l1`` → ``_from_l2`` → ``_from_llc`` →
  ``_from_dram``) with MSHR and DRAM models transcribed line-for-line
  from :class:`~repro.mem.mshr.MshrPool` and
  :class:`~repro.mem.dram.DramChannel` (same statistics, minus the
  instrumentation branches that are dead in uninstrumented runs);
* identical statistics (``level_stats`` / per-cache hit/miss counters /
  Figure 8 vector-port counters);
* a fused :meth:`FastMemorySystem.stream` for the vector units' request
  streams, which resolves hits at the port's first level inline and
  sends every other request through ``access()``.

All arithmetic is double precision either way (``np.float64`` *is* a C
double), so completion times — and therefore total cycle counts — come
out byte-identical.  ``tests/test_compiler.py`` locks this with
differential tests against :class:`MemorySystem`: random address
streams over all three ports, and ``stream()`` request lists on every
port with and without an LSQ window.

The fast model supports no instrumentation: it is only ever constructed
for uninstrumented runs (tracer/metrics/attribution all disabled), where
the interpreter's per-access ``if self.tracer.enabled`` guards are dead
code anyway.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import CacheConfig, DramConfig, SystemConfig
from ..errors import MemoryModelError
from ..mem.cache import Eviction
from ..mem.hierarchy import PORTS
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER


class FastCompletion:
    """Attribute-compatible stand-in for :class:`~repro.mem.hierarchy.Completion`.

    A ``__slots__`` class instantiates several times faster than the
    frozen dataclass; the field set and meaning are identical.
    """

    __slots__ = ("grant", "done", "level", "mshr_stall")

    def __init__(self, grant: float, done: float, level: str,
                 mshr_stall: float) -> None:
        self.grant = grant
        self.done = done
        self.level = level
        self.mshr_stall = mshr_stall


class FastCacheArray:
    """Replica of :class:`~repro.mem.cache.CacheArray` built for probes.

    Per-set ``{line: [way, dirty]}`` dicts make tag matching O(1) (tags
    are unique within a set: ``fill`` refreshes instead of duplicating)
    and double as the recency order: valid ways always carry *unique*
    LRU stamps in the numpy model (every touch advances the clock), so
    "first minimum stamp" is simply the least-recently-touched line —
    the dict's first key, when touches move entries to the end.  A
    sorted free-way list keeps the "first invalid way" rule.

    Both per-set structures materialise lazily (``None`` until the set
    is first filled): constructing the model costs two ``[None] * sets``
    lists instead of thousands of dicts, which matters because the
    compiled path builds a fresh FastMemorySystem per simulation and
    tiny-workload runs take single-digit milliseconds.
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

    # -- address mapping ----------------------------------------------------

    def bank_of(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.config.banks

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

    def fill(self, line_addr: int, dirty: bool = False) -> Optional[Eviction]:
        """Install a line, evicting the LRU way if the set is full."""
        evicted = self.fill_fast(line_addr, dirty)
        if evicted is None:
            return None
        return Eviction(line_addr=evicted[0], dirty=evicted[1])

    def fill_fast(self, line_addr: int,
                  dirty: bool) -> Optional[Tuple[int, bool]]:
        """``fill`` without the :class:`Eviction` allocation: returns
        ``(victim line address, victim dirty)`` or ``None``."""
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
            victim = free.pop(0)    # lowest invalid index, as the scan
        else:
            old_line, old_entry = next(iter(lru.items()))  # oldest touch
            del lru[old_line]
            victim = old_entry[0]
            evicted = (old_line * self.line_bytes, old_entry[1])
        lru[line] = [victim, dirty]
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns whether it was dirty.

        Like the numpy model, invalidation does not advance the LRU clock.
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

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0


class FastMshrPool:
    """Transcription of :class:`~repro.mem.mshr.MshrPool` without the
    attribution hook; token-heap semantics and statistics identical."""

    __slots__ = ("size", "name", "_busy", "acquires", "stall_cycles",
                 "stalled_acquires", "occupancy_hwm")

    def __init__(self, size: int, name: str = "mshr") -> None:
        if size <= 0:
            raise MemoryModelError(f"{name}: pool size must be positive")
        self.size = size
        self.name = name
        self._busy: List[float] = []  # heap of release times
        self.acquires = 0
        self.stall_cycles = 0.0
        self.stalled_acquires = 0
        self.occupancy_hwm = 0

    def acquire(self, now: float) -> Tuple[float, float]:
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
        while busy and busy[0] <= grant:
            heappop(busy)
        stall = grant - now
        self.stall_cycles += stall
        self.stalled_acquires += 1
        self.acquires += 1
        occupancy = len(busy) + 1
        if occupancy > self.occupancy_hwm:
            self.occupancy_hwm = occupancy
        return grant, stall

    def release(self, at: float) -> None:
        heappush(self._busy, at)

    @property
    def outstanding(self) -> int:
        return len(self._busy)

    def stats(self) -> dict:
        return {
            "size": self.size,
            "acquires": self.acquires,
            "stalled_acquires": self.stalled_acquires,
            "stall_cycles": self.stall_cycles,
            "occupancy_hwm": self.occupancy_hwm,
        }

    def reset_stats(self) -> None:
        self.acquires = 0
        self.stall_cycles = 0.0
        self.stalled_acquires = 0
        self.occupancy_hwm = 0


class FastDramChannel:
    """Transcription of :class:`~repro.mem.dram.DramChannel` without
    tracer/attribution branches; ``transfer_cycles`` is precomputed
    (the original recomputes the division per request)."""

    __slots__ = ("config", "line_bytes", "transfer_cycles", "access_latency",
                 "_next_free", "requests", "writebacks", "busy_cycles")

    def __init__(self, config: DramConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.line_bytes = line_bytes
        self.transfer_cycles = line_bytes / (config.bytes_per_cycle
                                             * config.channels)
        self.access_latency = config.access_latency
        self._next_free = 0.0
        self.requests = 0
        self.writebacks = 0
        self.busy_cycles = 0.0

    def service(self, now: float) -> Tuple[float, float]:
        transfer = self.transfer_cycles
        next_free = self._next_free
        start = now if now > next_free else next_free
        self._next_free = start + transfer
        self.requests += 1
        self.busy_cycles += transfer
        return start, start + self.access_latency

    def writeback(self, now: float) -> float:
        transfer = self.transfer_cycles
        next_free = self._next_free
        start = now if now > next_free else next_free
        self._next_free = start + transfer
        self.requests += 1
        self.writebacks += 1
        self.busy_cycles += transfer
        return start + transfer

    def utilisation(self, elapsed: float) -> float:
        return self.busy_cycles / elapsed if elapsed > 0 else 0.0

    def stats(self, elapsed: float = 0.0) -> dict:
        return {
            "requests": self.requests,
            "writebacks": self.writebacks,
            "busy_cycles": self.busy_cycles,
            "utilisation": self.utilisation(elapsed),
        }

    def reset_stats(self) -> None:
        self.requests = 0
        self.writebacks = 0
        self.busy_cycles = 0.0
        self._next_free = 0.0


class FastMemorySystem:
    """Drop-in, uninstrumented replica of :class:`MemorySystem`.

    The level chains are a line-for-line transcription of the numpy
    model's with the always-false ``tracer.enabled`` / ``metrics.enabled``
    branches removed.  Internally the chains pass ``(grant, done, level,
    stall)`` tuples and only the public ``access`` allocates a
    completion object — the callers read it once and discard it.  A
    vector unit's stream reaches ``access`` only for the requests that
    miss its port's first level.
    """

    def __init__(self, config: SystemConfig, tracer=None, metrics=None,
                 attribution=None) -> None:
        if any(hook is not None and getattr(hook, "enabled", True)
               for hook in (tracer, metrics, attribution)):
            raise MemoryModelError(
                "FastMemorySystem does not support instrumentation; "
                "use MemorySystem for traced/metered/attributed runs")
        self.config = config
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.attr = NULL_ATTRIBUTION
        self.l1d = FastCacheArray(config.l1d)
        self.l2 = FastCacheArray(config.l2)
        self.llc = FastCacheArray(config.llc)
        self.l1d_mshrs = FastMshrPool(config.l1d.mshrs, "l1d")
        self.l2_mshrs = FastMshrPool(config.l2.mshrs, "l2")
        self.llc_mshrs = FastMshrPool(config.llc.mshrs, "llc")
        self.dram = FastDramChannel(config.dram, config.llc.line_bytes)
        self._l2_bank_free = [0.0] * config.l2.banks
        self.vector_mshr_stall = 0.0
        self.vector_requests = 0
        self.vector_stalled_requests = 0
        # Hoisted hot constants (attribute loads add up at 1.7M calls).
        self._l1_hit = config.l1d.hit_latency
        self._l2_hit = config.l2.hit_latency
        self._llc_hit = config.llc.hit_latency

    # -- internal level chain (tuples: grant, done, level, stall) -----------

    def _from_dram(self, now: float, line_addr: int,
                   is_store: bool) -> Tuple[float, float, str, float]:
        grant, stall = self.llc_mshrs.acquire(now)
        # dram.service(), inlined on the hottest edge of the chain
        dram = self.dram
        transfer = dram.transfer_cycles
        at = grant + self._llc_hit
        next_free = dram._next_free
        start = at if at > next_free else next_free
        dram._next_free = start + transfer
        dram.requests += 1
        dram.busy_cycles += transfer
        done = start + dram.access_latency
        evicted = self.llc.fill_fast(line_addr, is_store)
        if evicted is not None:
            ev_line, ev_dirty = evicted
            if ev_dirty:
                dram.writeback(done)
            # Inclusive hierarchy: drop inner copies of the victim.
            if self.l2.invalidate(ev_line):
                dram.writeback(done)
            self.l1d.invalidate(ev_line)
        self.llc_mshrs.release(done)
        return grant, done, "dram", stall

    def _from_llc(self, now: float, line_addr: int,
                  is_store: bool) -> Tuple[float, float, str, float]:
        if self.llc.lookup(line_addr, is_store):
            return now, now + self._llc_hit, "llc", 0.0
        return self._from_dram(now, line_addr, is_store)

    def _from_l2(self, now: float, line_addr: int,
                 is_store: bool) -> Tuple[float, float, str, float]:
        bank_free = self._l2_bank_free
        bank = self.l2.bank_of(line_addr)
        at = bank_free[bank]
        start = at if at > now else now
        bank_free[bank] = start + 1.0  # pipelined, 1-cycle occupancy
        if self.l2.lookup(line_addr, is_store):
            return now, start + self._l2_hit, "l2", start - now
        grant, stall = self.l2_mshrs.acquire(start)
        _, done, level, inner_stall = self._from_llc(
            grant + self._l2_hit, line_addr, False)
        evicted = self.l2.fill_fast(line_addr, is_store)
        if evicted is not None and evicted[1]:
            # Dirty L2 victims write back into the LLC.
            if not self.llc.lookup(evicted[0], is_store=True):
                self.llc.fill_fast(evicted[0], True)
        self.l2_mshrs.release(done)
        return grant, done, level, stall + inner_stall

    def _from_l1(self, now: float, line_addr: int,
                 is_store: bool) -> Tuple[float, float, str, float]:
        if self.l1d.lookup(line_addr, is_store):
            return now, now + self._l1_hit, "l1", 0.0
        grant, stall = self.l1d_mshrs.acquire(now)
        _, done, level, inner_stall = self._from_l2(
            grant + self._l1_hit, line_addr, False)
        evicted = self.l1d.fill_fast(line_addr, is_store)
        if evicted is not None and evicted[1]:
            if not self.l2.lookup(evicted[0], is_store=True):
                self.l2.fill_fast(evicted[0], True)
        self.l1d_mshrs.release(done)
        return grant, done, level, stall + inner_stall

    # -- public ports ---------------------------------------------------------

    def access(self, now: float, line_addr: int, is_store: bool,
               port: str = "l1") -> FastCompletion:
        """Issue one cache-line request on the given port."""
        if port == "l1":
            grant, done, level, stall = self._from_l1(now, line_addr,
                                                      is_store)
        elif port == "l2":
            grant, done, level, stall = self._from_l2(now, line_addr,
                                                      is_store)
        elif port == "llc":
            grant, done, level, stall = self._from_llc(now, line_addr,
                                                       is_store)
            self.vector_requests += 1
            self.vector_mshr_stall += stall
            if stall > 0:
                self.vector_stalled_requests += 1
        else:
            raise MemoryModelError(
                f"unknown port {port!r} (expected one of {PORTS})")
        return FastCompletion(grant, done, level, stall)

    def stream(self, start: float, lines: Sequence[int], is_store: bool,
               port: str, interval: float,
               window=None) -> Tuple[float, float, float, float]:
        """Fused :meth:`MemorySystem.stream`: same contract, same results.

        The stream state lives in locals, and a request that hits the
        port's first level resolves inline: the LLC probe (EVE's VMU),
        the L2 bank delay plus probe (DV), the L1 probe behind the
        ``window`` slot (IV's LSQ).  Every other request goes through
        :meth:`access`, so the miss path (MSHRs, DRAM, fills, inclusive
        invalidation, the vector-port counters) is written once.

        Results are byte-identical to the per-request loop: an inline
        hit evaluates the chain's float operations in the chain's order,
        and the issue rule ``max(at, grant) + interval`` is the loop's
        rule.  The probe reads the set without touching it, so a miss
        reaches :meth:`access` with the cache exactly as it found it;
        the L2 bank delay does not depend on the probe, so it may follow
        it.  The additions a hit skips are ``+ 0.0`` stalls.
        """
        if port == "llc":
            cache, hit_latency, banks = self.llc, self._llc_hit, None
        elif port == "l2":
            cache, hit_latency = self.l2, self._l2_hit
            banks = self._l2_bank_free
        elif port == "l1":
            cache, hit_latency, banks = self.l1d, self._l1_hit, None
        else:
            raise MemoryModelError(
                f"unknown port {port!r} (expected one of {PORTS})")
        access = self.access
        acquire = release = None
        if window is not None:
            acquire, release = window.acquire, window.release
        sets = cache._lru
        n_sets = cache.sets
        line_bytes = cache.line_bytes
        n_banks = len(banks) if banks is not None else 0
        t = last_done = start
        first_done = None
        stall = 0.0
        hits = 0
        for line_addr in lines:
            at = t if acquire is None else acquire(t)[0]
            line = line_addr // line_bytes
            lru = sets[line % n_sets]
            entry = None if lru is None else lru.pop(line, None)
            if entry is None:
                completion = access(at, line_addr, is_store, port)
                done = completion.done
                stall += completion.mshr_stall
                grant = completion.grant
                t = (grant if grant > at else at) + interval
            else:
                lru[line] = entry  # reinsert at the end: most recent
                if is_store:
                    entry[1] = True
                hits += 1
                if banks is None:
                    done = at + hit_latency
                else:
                    bank = line % n_banks
                    free = banks[bank]
                    begin = free if free > at else at
                    banks[bank] = begin + 1.0  # pipelined, 1-cycle occupancy
                    done = begin + hit_latency
                    stall += begin - at
                t = at + interval
            if release is not None:
                release(done)
            if first_done is None:
                first_done = done
            if done > last_done:
                last_done = done
        cache.hits += hits
        if port == "llc":
            self.vector_requests += hits
        if first_done is None:
            first_done = start
        return t, first_done, last_done, stall

    # -- statistics -----------------------------------------------------------

    def level_stats(self, elapsed: float = 0.0) -> dict:
        stats = {
            "l1d": (self.l1d.hits, self.l1d.misses),
            "l2": (self.l2.hits, self.l2.misses),
            "llc": (self.llc.hits, self.llc.misses),
            "dram": self.dram.stats(elapsed),
        }
        for pool in (self.l1d_mshrs, self.l2_mshrs, self.llc_mshrs):
            stats[f"{pool.name}_mshr"] = pool.stats()
        return stats

    def populate_metrics(self, elapsed: float = 0.0) -> None:
        """No-op: the fast model only runs uninstrumented."""

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l2, self.llc):
            cache.reset_stats()
        for pool in (self.l1d_mshrs, self.l2_mshrs, self.llc_mshrs):
            pool.reset_stats()
        self.dram.reset_stats()
        self.vector_mshr_stall = 0.0
        self.vector_requests = 0
        self.vector_stalled_requests = 0
