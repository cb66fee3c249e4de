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
:meth:`MemorySystem.stream`; scalar cores issue single ``access()``
calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import MemoryModelError
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanTracer
from .cache import CacheArray
from .dram import DramChannel
from .mshr import MshrPool

PORTS = ("l1", "l2", "llc")

#: Trace track carrying each port's access → completion spans.
_PORT_TRACK = {"l1": "L1D", "l2": "L2", "llc": "LLC"}


@dataclass(frozen=True)
class Completion:
    """Outcome of one line request."""

    grant: float       # when the request was accepted (after MSHR stalls)
    done: float        # when the data is available
    level: str         # 'l1' | 'l2' | 'llc' | 'dram'
    mshr_stall: float  # time spent waiting to even send the request


class MemorySystem:
    """Timeline-based cycle-approximate model of Table III's hierarchy."""

    def __init__(self, config: SystemConfig,
                 tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 attribution=None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.attr = attribution if attribution is not None else NULL_ATTRIBUTION
        for prefix in ("mem", "mshr", "dram"):
            self.metrics.reserve(prefix, "MemorySystem")
        self.l1d = CacheArray(config.l1d)
        self.l2 = CacheArray(config.l2)
        self.llc = CacheArray(config.llc)
        self.l1d_mshrs = MshrPool(config.l1d.mshrs, "l1d",
                                  attribution=self.attr)
        self.l2_mshrs = MshrPool(config.l2.mshrs, "l2",
                                 attribution=self.attr)
        self.llc_mshrs = MshrPool(config.llc.mshrs, "llc",
                                  attribution=self.attr)
        self.dram = DramChannel(config.dram, config.llc.line_bytes,
                                tracer=self.tracer, attribution=self.attr)
        self._l2_bank_free = np.zeros(config.l2.banks)
        #: Figure 8 accounting for the vector (LLC) port.
        self.vector_mshr_stall = 0.0
        self.vector_requests = 0
        self.vector_stalled_requests = 0
        #: Pre-bound per-port latency histograms (no-ops when disabled).
        self._latency_hist = {
            port: self.metrics.histogram(f"mem.{port}.latency")
            for port in PORTS}

    # -- internal level chain ------------------------------------------------

    def _l2_bank_delay(self, line_addr: int, at: float) -> float:
        bank = self.l2.bank_of(line_addr)
        start = max(at, self._l2_bank_free[bank])
        self._l2_bank_free[bank] = start + 1.0  # pipelined, 1-cycle occupancy
        return start

    def _from_dram(self, now: float, line_addr: int, is_store: bool) -> Completion:
        grant, stall = self.llc_mshrs.acquire(now)
        _, done = self.dram.service(grant + self.config.llc.hit_latency)
        evicted = self.llc.fill(line_addr, dirty=is_store)
        if evicted is not None:
            if evicted.dirty:
                self.dram.writeback(done)
            # Inclusive hierarchy: drop inner copies of the victim.
            if self.l2.invalidate(evicted.line_addr):
                self.dram.writeback(done)
            self.l1d.invalidate(evicted.line_addr)
        self.llc_mshrs.release(done)
        return Completion(grant=grant, done=done, level="dram", mshr_stall=stall)

    def _from_llc(self, now: float, line_addr: int, is_store: bool) -> Completion:
        if self.llc.lookup(line_addr, is_store):
            return Completion(grant=now, done=now + self.config.llc.hit_latency,
                              level="llc", mshr_stall=0.0)
        return self._from_dram(now, line_addr, is_store)

    def _from_l2(self, now: float, line_addr: int, is_store: bool) -> Completion:
        start = self._l2_bank_delay(line_addr, now)
        if self.l2.lookup(line_addr, is_store):
            return Completion(grant=now, done=start + self.config.l2.hit_latency,
                              level="l2", mshr_stall=start - now)
        grant, stall = self.l2_mshrs.acquire(start)
        inner = self._from_llc(grant + self.config.l2.hit_latency, line_addr, False)
        evicted = self.l2.fill(line_addr, dirty=is_store)
        if evicted is not None and evicted.dirty:
            # Dirty L2 victims write back into the LLC.
            if not self.llc.lookup(evicted.line_addr, is_store=True):
                self.llc.fill(evicted.line_addr, dirty=True)
        self.l2_mshrs.release(inner.done)
        return Completion(grant=grant, done=inner.done, level=inner.level,
                          mshr_stall=stall + inner.mshr_stall)

    def _from_l1(self, now: float, line_addr: int, is_store: bool) -> Completion:
        if self.l1d.lookup(line_addr, is_store):
            return Completion(grant=now, done=now + self.config.l1d.hit_latency,
                              level="l1", mshr_stall=0.0)
        grant, stall = self.l1d_mshrs.acquire(now)
        inner = self._from_l2(grant + self.config.l1d.hit_latency, line_addr, False)
        evicted = self.l1d.fill(line_addr, dirty=is_store)
        if evicted is not None and evicted.dirty:
            if not self.l2.lookup(evicted.line_addr, is_store=True):
                self.l2.fill(evicted.line_addr, dirty=True)
        self.l1d_mshrs.release(inner.done)
        return Completion(grant=grant, done=inner.done, level=inner.level,
                          mshr_stall=stall + inner.mshr_stall)

    # -- public ports ---------------------------------------------------------

    def access(self, now: float, line_addr: int, is_store: bool,
               port: str = "l1") -> Completion:
        """Issue one cache-line request on the given port."""
        if port == "l1":
            completion = self._from_l1(now, line_addr, is_store)
        elif port == "l2":
            completion = self._from_l2(now, line_addr, is_store)
        elif port == "llc":
            completion = self._from_llc(now, line_addr, is_store)
            self.vector_requests += 1
            self.vector_mshr_stall += completion.mshr_stall
            if completion.mshr_stall > 0:
                self.vector_stalled_requests += 1
        else:
            raise MemoryModelError(
                f"unknown port {port!r} (expected one of {PORTS})")
        if self.tracer.enabled:
            self.tracer.span(
                _PORT_TRACK[port],
                f"{'st' if is_store else 'ld'}:{completion.level}",
                now, completion.done, line=line_addr,
                mshr_stall=completion.mshr_stall)
            # Counter tracks: the accessed chain's MSHR pool occupancy
            # (every port ends up traversing l1d/l2/llc pools; sampling
            # the entry pool keeps the trace compact and matches the HWM
            # gauges in level_stats).
            pool = (self.l1d_mshrs if port == "l1"
                    else self.l2_mshrs if port == "l2"
                    else self.llc_mshrs)
            self.tracer.sample("MSHR", f"{pool.name}_mshr_occupancy",
                               completion.grant, pool.outstanding)
        if self.metrics.enabled:
            self._latency_hist[port].observe(completion.done - now)
        return completion

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

        Every request goes through :meth:`access`, so instrumented runs
        keep each per-access span, histogram sample and charge.
        """
        t = first_done = last_done = start
        stall = 0.0
        for i, line in enumerate(lines):
            at = t if window is None else window.acquire(t)[0]
            completion = self.access(at, line, is_store, port)
            done = completion.done
            if window is not None:
                window.release(done)
            if i == 0:
                first_done = done
            last_done = max(last_done, done)
            stall += completion.mshr_stall
            t = max(at, completion.grant) + interval
        return t, first_done, last_done, stall

    # -- statistics -------------------------------------------------------------

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

    def populate_metrics(self, elapsed: float = 0.0) -> None:
        """Publish the hierarchy's aggregate stats into the registry
        (called once at end of run — keeps the hot path lean)."""
        metrics = self.metrics
        if not metrics.enabled:
            return
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

    def reset_stats(self) -> None:
        for cache in (self.l1d, self.l2, self.llc):
            cache.reset_stats()
        for pool in (self.l1d_mshrs, self.l2_mshrs, self.llc_mshrs):
            pool.reset_stats()
        self.dram.reset_stats()
        self.vector_mshr_stall = 0.0
        self.vector_requests = 0
        self.vector_stalled_requests = 0
