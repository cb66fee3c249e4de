"""The composed memory system: L1D / L2 / LLC tag arrays + MSHRs + DRAM.

Three ports mirror the paper's plumbing (Section VII-A: "special ports to
connect vector units to either the L2 cache or the LLC"):

* ``l1``  — the scalar core's port (and the integrated vector unit's,
  whose memory μops go through the LSQ like scalar accesses);
* ``l2``  — the decoupled vector engine's port;
* ``llc`` — EVE's port (its VMU bypasses the halved private L2).

The hierarchy is inclusive: an LLC eviction invalidates inner copies.
Misses hold an MSHR at their level until the fill returns; acquiring a
full pool stalls the requester (Figure 8's metric for the EVE VMU).
The vector units hand each memory macro-op's whole request list to
``stream()``; scalar cores issue single ``access()`` calls.

There is one model.  :class:`FastMemorySystem` carries no hooks;
:class:`MemorySystem` subclasses it and adds only the tracer, metrics
and attribution hooks.  :func:`memory_system` picks between them from
the hooks a machine was given, so an instrumented run times exactly
what a plain run times.  There is one stream loop,
:meth:`FastMemorySystem.stream`, for every run: a request it does not
resolve inline goes through ``access()``, and with the tracer or the
metrics on, each hit it resolves inline goes to the model's
:attr:`~FastMemorySystem.hit_observer`, the method the hooked
``access()`` also calls, so every request keeps its span and latency
sample in request order.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import MemoryModelError
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanTracer
from .cache import CacheArray
from .dram import DramChannel, FastDramChannel
from .mshr import MshrPool

PORTS = ("l1", "l2", "llc")

#: Trace track carrying each port's access → completion spans.
_PORT_TRACK = {"l1": "L1D", "l2": "L2", "llc": "LLC"}


class Completion:
    """Outcome of one line request."""

    __slots__ = ("grant", "done", "level", "mshr_stall")

    def __init__(self, grant: float, done: float, level: str,
                 mshr_stall: float) -> None:
        self.grant = grant            # when the request was accepted
        self.done = done              # when the data is available
        self.level = level            # 'l1' | 'l2' | 'llc' | 'dram'
        self.mshr_stall = mshr_stall  # time spent waiting to send it


class FastMemorySystem:
    """Timeline-based cycle-approximate model of Table III's hierarchy.

    Internally the level chains pass ``(grant, done, level, stall)``
    tuples and only the public :meth:`access` allocates a
    :class:`Completion`.  A vector unit's :meth:`stream` reaches
    ``access`` only for the requests that miss its port's first level.
    """

    #: Called by :meth:`stream` with each first-level hit it resolves
    #: inline, as ``(now, line_addr, is_store, port, grant, done, level,
    #: mshr_stall)``; ``None`` (nothing observes) on the plain model.
    hit_observer: Optional[Callable[..., None]] = None

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.l1d = CacheArray(config.l1d)
        self.l2 = CacheArray(config.l2)
        self.llc = CacheArray(config.llc)
        self.l1d_mshrs = MshrPool(config.l1d.mshrs, "l1d")
        self.l2_mshrs = MshrPool(config.l2.mshrs, "l2")
        self.llc_mshrs = MshrPool(config.llc.mshrs, "llc")
        self.dram = FastDramChannel(config.dram, config.llc.line_bytes)
        self._l2_bank_free = [0.0] * config.l2.banks
        #: Figure 8 accounting for the vector (LLC) port.
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
        dram = self.dram
        _, done = dram.service(grant + self._llc_hit)
        evicted = self.llc.fill(line_addr, is_store)
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
        evicted = self.l2.fill(line_addr, is_store)
        if evicted is not None and evicted[1]:
            # Dirty L2 victims write back into the LLC.
            if not self.llc.lookup(evicted[0], is_store=True):
                self.llc.fill(evicted[0], True)
        self.l2_mshrs.release(done)
        return grant, done, level, stall + inner_stall

    def _from_l1(self, now: float, line_addr: int,
                 is_store: bool) -> Tuple[float, float, str, float]:
        if self.l1d.lookup(line_addr, is_store):
            return now, now + self._l1_hit, "l1", 0.0
        grant, stall = self.l1d_mshrs.acquire(now)
        _, done, level, inner_stall = self._from_l2(
            grant + self._l1_hit, line_addr, False)
        evicted = self.l1d.fill(line_addr, is_store)
        if evicted is not None and evicted[1]:
            if not self.l2.lookup(evicted[0], is_store=True):
                self.l2.fill(evicted[0], True)
        self.l1d_mshrs.release(done)
        return grant, done, level, stall + inner_stall

    # -- public ports ---------------------------------------------------------

    def access(self, now: float, line_addr: int, is_store: bool,
               port: str = "l1") -> Completion:
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
        return Completion(grant, done, level, stall)

    def stream(self, start: float, lines: Sequence[int], is_store: bool,
               port: str, interval: float,
               window: Optional[MshrPool] = None
               ) -> Tuple[float, float, float, float]:
        """Issue one memory macro-op's request list as a pipelined stream.

        Each request leaves ``interval`` cycles after the previous one
        was accepted (its grant).  With a ``window`` (the IV's LSQ slots)
        a request first waits for a free slot and holds it until its data
        returns.  Returns ``(issue_end, first_done, last_done,
        mshr_stall)``: when the next request could leave, the first and
        the latest data return, and the summed MSHR stall.  An empty list
        returns ``(start, start, start, 0.0)``.

        The stream state lives in locals, and a request that hits the
        port's first level resolves inline: the LLC probe (EVE's VMU),
        the L2 bank delay plus probe (DV), the L1 probe behind the
        ``window`` slot (IV's LSQ).  Every other request goes through
        :meth:`access`, so the miss path (MSHRs, DRAM, fills, inclusive
        invalidation, the vector-port counters) is written once.  Each
        inline hit is handed to :attr:`hit_observer` when one is set,
        before the next request issues, so a hooked model observes every
        request in request order.

        Results are byte-identical to issuing every request through
        :meth:`access` under the issue rule ``max(at, grant) +
        interval``: an inline hit evaluates the chain's float operations
        in the chain's order, and its grant is its issue time.  The
        probe reads the set without touching it, so a miss reaches
        :meth:`access` with the cache exactly as it found it; the L2
        bank delay does not depend on the probe, so it may follow it.
        The additions a hit skips are ``+ 0.0`` stalls.
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
        observe = self.hit_observer
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
                    wait = 0.0
                else:
                    bank = line % n_banks
                    free = banks[bank]
                    begin = free if free > at else at
                    banks[bank] = begin + 1.0  # pipelined, 1-cycle occupancy
                    done = begin + hit_latency
                    wait = begin - at
                    stall += wait
                if observe is not None:
                    observe(at, line_addr, is_store, port, at, done, port,
                            wait)
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
        """Hit/miss pairs per level, plus MSHR occupancy / stall accounting
        and DRAM channel utilisation (``elapsed`` is the run's total
        cycles; utilisation reads 0 when it is not supplied)."""
        stats = {
            "l1d": (self.l1d.hits, self.l1d.misses),
            "l2": (self.l2.hits, self.l2.misses),
            "llc": (self.llc.hits, self.llc.misses),
            "dram": self.dram.stats(elapsed),
        }
        for pool in (self.l1d_mshrs, self.l2_mshrs, self.llc_mshrs):
            stats[f"{pool.name}_mshr"] = pool.stats()
        return stats


class MemorySystem(FastMemorySystem):
    """:class:`FastMemorySystem` plus the observability hooks: one span
    and one latency-histogram sample per request, MSHR occupancy counter
    tracks, MSHR-stall and DRAM-busy attribution charges, and the
    end-of-run metrics publication.

    Requests stream through the one fused kernel.  The charges are made
    on the miss path (the MSHR pools and the DRAM channel), which goes
    through :meth:`access`; with the tracer or metrics on, the kernel's
    inline hits go to :meth:`_observe`, which :meth:`access` calls for
    every other request."""

    def __init__(self, config: SystemConfig,
                 tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 attribution=None) -> None:
        super().__init__(config)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.attr = attribution if attribution is not None else NULL_ATTRIBUTION
        for prefix in ("mem", "mshr", "dram"):
            self.metrics.reserve(prefix, "MemorySystem")
        for pool in (self.l1d_mshrs, self.l2_mshrs, self.llc_mshrs):
            pool.attr = self.attr
        self.dram = DramChannel(config.dram, config.llc.line_bytes,
                                tracer=self.tracer, attribution=self.attr)
        #: Pre-bound per-port latency histograms (no-ops when disabled).
        self._latency_hist = {
            port: self.metrics.histogram(f"mem.{port}.latency")
            for port in PORTS}
        if self.tracer.enabled or self.metrics.enabled:
            self.hit_observer = self._observe

    def access(self, now: float, line_addr: int, is_store: bool,
               port: str = "l1") -> Completion:
        """Issue one cache-line request on the given port."""
        completion = super().access(now, line_addr, is_store, port)
        self._observe(now, line_addr, is_store, port, completion.grant,
                      completion.done, completion.level,
                      completion.mshr_stall)
        return completion

    def _observe(self, now: float, line_addr: int, is_store: bool,
                 port: str, grant: float, done: float, level: str,
                 mshr_stall: float) -> None:
        """One request's span, entry-pool MSHR occupancy sample and
        latency sample: for each :meth:`access`, and for each hit
        :meth:`stream` resolves inline (grant ``now``, level ``port``)."""
        tracer = self.tracer
        if tracer.enabled:
            tracer.span(_PORT_TRACK[port],
                        f"{'st' if is_store else 'ld'}:{level}",
                        now, done, line=line_addr, mshr_stall=mshr_stall)
            # Counter tracks: the accessed chain's MSHR pool occupancy
            # (every port ends up traversing l1d/l2/llc pools; sampling
            # the entry pool keeps the trace compact and matches the HWM
            # gauges in level_stats).
            pool = (self.l1d_mshrs if port == "l1"
                    else self.l2_mshrs if port == "l2"
                    else self.llc_mshrs)
            tracer.sample("MSHR", f"{pool.name}_mshr_occupancy", grant,
                          pool.outstanding)
        if self.metrics.enabled:
            self._latency_hist[port].observe(done - now)

    def populate_metrics(self, elapsed: float = 0.0) -> None:
        """Publish the hierarchy's aggregate stats into the registry
        (called once at end of run, with metrics on — keeps the hot path
        lean)."""
        metrics = self.metrics
        for name, cache in (("l1d", self.l1d), ("l2", self.l2),
                            ("llc", self.llc)):
            for key, value in cache.stats().items():
                if key != "miss_rate":
                    metrics.counter(f"mem.{name}.{key}").inc(value)
        for pool in (self.l1d_mshrs, self.l2_mshrs, self.llc_mshrs):
            prefix = f"mshr.{pool.name}"
            occupancy = metrics.gauge(f"{prefix}.occupancy")
            occupancy.set(pool.occupancy_hwm)
            occupancy.set(pool.outstanding)
            metrics.counter(f"{prefix}.stall_cycles").inc(pool.stall_cycles)
            metrics.counter(f"{prefix}.acquires").inc(pool.acquires)
            metrics.counter(f"{prefix}.stalled_acquires").inc(
                pool.stalled_acquires)
        dram = self.dram.stats(elapsed)
        metrics.counter("dram.requests").inc(dram["requests"])
        metrics.counter("dram.writebacks").inc(dram["writebacks"])
        metrics.counter("dram.busy_cycles").inc(dram["busy_cycles"])
        metrics.gauge("dram.utilisation").set(dram["utilisation"])
        metrics.counter("mem.vector.requests").inc(self.vector_requests)
        metrics.counter("mem.vector.stalled_requests").inc(
            self.vector_stalled_requests)
        metrics.counter("mem.vector.mshr_stall_cycles").inc(
            self.vector_mshr_stall)


def memory_system(config: SystemConfig,
                  tracer: SpanTracer = NULL_TRACER,
                  metrics: MetricsRegistry = NULL_METRICS,
                  attribution=NULL_ATTRIBUTION) -> FastMemorySystem:
    """A cold hierarchy for one run: :class:`MemorySystem` when any hook
    is enabled, the hook-free :class:`FastMemorySystem` otherwise."""
    if tracer.enabled or metrics.enabled or attribution.enabled:
        return MemorySystem(config, tracer=tracer, metrics=metrics,
                            attribution=attribution)
    return FastMemorySystem(config)
