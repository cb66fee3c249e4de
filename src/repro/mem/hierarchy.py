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
``stream()``; scalar cores walk each access pattern's list ahead
(``walk_ahead()``), then issue single ``access()`` calls.

A request is served in two steps.  The **tag walk**,
:meth:`FastMemorySystem._walker`, does only ``lookup`` / ``install`` /
``invalidate`` and reduces the request to a one-byte code: the level
that served it plus the DRAM writebacks its LLC victim costs.  The
**timing replay**, :meth:`FastMemorySystem._timer`, turns a code into
the L2-bank, MSHR and DRAM float operations of the level chain, in the
chain's order, and answers ``(grant, done, stall)``.  Both are bound
once per port when the model is built.  Tags never read simulated
time, so the codes depend only on the request sequence and the cache
geometry: a run records them as a :class:`TagWalk`, and a later run
that issues the same requests replays it
(:meth:`FastMemorySystem.replay`) and touches no tag array.

:meth:`FastMemorySystem.access` answers one request as a plain tuple,
``(grant, done, level, mshr_stall)``, and keeps the vector port's
Figure 8 totals.  There is one model.  :class:`FastMemorySystem`
carries no hooks; :class:`MemorySystem` subclasses it and adds only the
tracer, metrics and attribution hooks, all on the timing side.
:func:`memory_system` picks between them from the hooks a machine was
given, so an instrumented run times exactly what a plain run times.
There is one stream kernel, :meth:`FastMemorySystem.stream`, for every
run: a request it does not resolve inline goes through ``access()``,
and with the tracer or the metrics on, each hit it resolves inline goes
to the hooked model's ``_observe``, the method the hooked ``access()``
also calls, so every request keeps its span and latency sample in
request order.  With nothing to do per hit (no LSQ window, no L2 bank,
no observer: EVE's VMU on a plain model), the kernel advances each run
of first-level hits by its issue interval alone.

No closure or bound method the model stores may reach the model
itself: the walkers and timers close over the tag arrays, the pools and
the DRAM channel, and the hooked model picks its observer per stream.
That is one case of a program-wide rule (DESIGN.md §15): every campaign
unit runs with the cyclic collector paused
(:func:`repro.experiments.parallel.fan_out`), so a reference cycle
through the model would hold every run's hierarchy, three tag arrays
and all, until its unit ends, and then leave it to the collector; a
timer that captured ``self`` left about 240,000 objects per perfbench
``sweep`` pass to it.  For the same reason the trace compiler hoists
request lines as ``range`` and ``tuple`` objects
(:meth:`~repro.isa.instructions.MemAccess.request_lines`), which the
collector stops scanning: as lists, all 644,200 requests a ``sweep``
pass hoists were re-traversed at every full collection.
"""

from __future__ import annotations

from itertools import repeat
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

#: Request codes: the level that served a request; a DRAM code adds the
#: writebacks (0–2) its LLC victim cost, so codes run 0–5.
L1, L2, LLC, DRAM = 0, 1, 2, 3

#: The level each code names, as :meth:`FastMemorySystem.access` spells
#: it.
LEVELS = ("l1", "l2", "llc", "dram", "dram", "dram")

#: Per first-level hit code of a port without L2 banks: a
#: ``bytes.translate`` table that maps that code to 0 and every other
#: code (a miss) to 1.
_MISS_MASK = {hit: bytes(int(code != hit) for code in range(256))
              for hit in (L1, LLC)}


class TagWalk:
    """One run's tag walk: ``codes`` holds one code per request, in
    request order, and ``tag_counts`` the ``(hits, misses)`` the walk
    left in the L1D, L2 and LLC tag arrays."""

    __slots__ = ("codes", "tag_counts")

    def __init__(self, codes: bytes,
                 tag_counts: Tuple[Tuple[int, int], ...]) -> None:
        self.codes = codes
        self.tag_counts = tag_counts


class FastMemorySystem:
    """Timeline-based cycle-approximate model of Table III's hierarchy.

    A fresh model walks the tags of each request as it arrives, records
    its code, and replays the code's timing; :meth:`finish` hands the
    record back.  A model given a record with :meth:`replay` times its
    codes instead and never walks.  A vector unit's :meth:`stream`
    reaches :meth:`access` only for the requests that miss its port's
    first level.
    """

    #: Whether :meth:`stream` hands each first-level hit it resolves
    #: inline to ``_observe``: only a :class:`MemorySystem` whose tracer
    #: or metrics are on does.
    observes = False

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
        self._l2_line = config.l2.line_bytes
        #: One code per request so far: appended by the walk, or the
        #: replayed record's codes.
        self._codes = bytearray()
        #: Index of the next request's code.
        self._pos = 0
        #: The record being replayed; ``None`` while walking.
        self._replaying: Optional[TagWalk] = None
        #: The tag walk (:meth:`_walker`) and the timing replay
        #: (:meth:`_timer`) of each port, bound once so a single
        #: :meth:`access` pays no per-call set-up or port dispatch.
        self._walkers = {port: self._walker(port) for port in PORTS}
        self._timers = {port: self._timer(port) for port in PORTS}

    # -- the tag walk and the timing replay -----------------------------------

    def replay(self, walk: TagWalk) -> None:
        """Time ``walk``'s codes instead of walking the tags: the model
        must then be handed exactly the requests that recorded them, in
        the same order.  Call before the first request."""
        if self._codes:
            raise MemoryModelError("replay() must precede the first request")
        self._codes = walk.codes
        self._replaying = walk

    def finish(self) -> Optional[TagWalk]:
        """End a run: a walking model returns its :class:`TagWalk`; a
        replaying one, which must have been handed every recorded
        request, restores the walk's hit/miss totals and returns
        ``None``."""
        caches = (self.l1d, self.l2, self.llc)
        walk = self._replaying
        if walk is None:
            return TagWalk(bytes(self._codes),
                           tuple((c.hits, c.misses) for c in caches))
        if self._pos != len(self._codes):
            raise MemoryModelError(
                f"replay handed {self._pos} requests; its record holds "
                f"{len(self._codes)}")
        for cache, (hits, misses) in zip(caches, walk.tag_counts):
            cache.hits, cache.misses = hits, misses
        return None

    def _walker(self, port: str) -> Callable[[Sequence[int], bool], None]:
        """The tag walk of requests entering at ``port``: a function that
        serves each request of a list on the tag arrays alone and
        appends its code to the record.

        The probe of the port's first level is inline; a miss below it
        makes the level chain's tag operations in the chain's order:
        lookups down to the serving level, then the fills back up, with
        the LLC victim's inner copies invalidated (inclusion) and dirty
        L1/L2 victims written into the level below.  Only the entry
        level sees ``is_store``; the levels below it see loads.  Every
        fill follows a miss of its line at its level, so the walk calls
        :meth:`CacheArray.install`, which skips ``fill``'s refresh
        probe.
        """
        l1d, l2, llc = self.l1d, self.l2, self.llc
        first, hit = {"l1": (l1d, L1), "l2": (l2, L2), "llc": (llc, LLC)}[port]
        on_l1, on_l2, on_llc = port == "l1", port == "l2", port == "llc"
        sets, n_sets, line_bytes = first._lru, first.sets, first.line_bytes
        l2_lookup, llc_lookup = l2.lookup, llc.lookup
        l1d_install, l2_install, llc_install = (l1d.install, l2.install,
                                                llc.install)
        l1d_invalidate, l2_invalidate = l1d.invalidate, l2.invalidate
        append = self._codes.append

        def walk(lines: Sequence[int], is_store: bool) -> None:
            misses = 0
            for line_addr in lines:
                line = line_addr // line_bytes
                lru = sets[line % n_sets]
                entry = None if lru is None else lru.pop(line, None)
                if entry is not None:
                    lru[line] = entry  # reinsert at the end: most recent
                    if is_store:
                        entry[1] = True
                    append(hit)
                    continue
                misses += 1
                if on_l1 and l2_lookup(line_addr, False):
                    code = L2
                else:
                    if not on_llc and llc_lookup(line_addr, False):
                        code = LLC
                    else:
                        code = DRAM
                        evicted = llc_install(line_addr, on_llc and is_store)
                        if evicted is not None:
                            ev_line, ev_dirty = evicted
                            if ev_dirty:
                                code += 1
                            # Inclusive hierarchy: drop inner copies of
                            # the victim; a dirty L2 copy writes back too.
                            if l2_invalidate(ev_line):
                                code += 1
                            l1d_invalidate(ev_line)
                    if not on_llc:
                        evicted = l2_install(line_addr, on_l2 and is_store)
                        if evicted is not None and evicted[1]:
                            # Dirty L2 victims write back into the LLC.
                            if not llc_lookup(evicted[0], True):
                                llc_install(evicted[0], True)
                if on_l1:
                    evicted = l1d_install(line_addr, is_store)
                    if evicted is not None and evicted[1]:
                        if not l2_lookup(evicted[0], True):
                            l2_install(evicted[0], True)
                append(code)
            first.hits += len(lines) - misses
            first.misses += misses

        return walk

    def _timer(self, port: str
               ) -> Callable[[float, int, int], Tuple[float, float, float]]:
        """The timing replay of requests entering at ``port``: a function
        from one request's ``(now, line_addr, code)`` to its ``(grant,
        done, stall)``.

        Entering at the port's level, each level below a miss holds an
        MSHR from its grant until the data returns: L1D (``l1`` port),
        then the L2 behind its bank's 1-cycle pipelined occupancy
        (``l1``/``l2``), then the LLC and DRAM, whose victim writebacks
        queue on the channel when the data arrives.  The grant is the
        entry level's, and the stall sums the levels' MSHR stalls
        (plus the L2 bank wait when the L2 serves).

        Each port's timer is its own flat function, so a request pays
        no port dispatch.  It closes over the pools, the L2 banks and
        the DRAM channel it was bound to, never over the model (see the
        module docstring), so a model that swaps its channel must bind
        its timers again.
        """
        l1_hit, l2_hit, llc_hit = self._l1_hit, self._l2_hit, self._llc_hit
        l2_line = self._l2_line
        bank_free = self._l2_bank_free
        n_banks = len(bank_free)
        l1_acquire, l1_release = self.l1d_mshrs.acquire, self.l1d_mshrs.release
        l2_acquire, l2_release = self.l2_mshrs.acquire, self.l2_mshrs.release
        llc_acquire = self.llc_mshrs.acquire
        llc_release = self.llc_mshrs.release
        service, writeback = self.dram.service, self.dram.writeback

        def time_llc(now: float, line_addr: int, code: int):
            if code == LLC:
                return now, now + llc_hit, 0.0
            grant, stall = llc_acquire(now)
            done = service(grant + llc_hit)[1]
            if code > DRAM:
                writeback(done)
                if code > DRAM + 1:
                    writeback(done)
            llc_release(done)
            return grant, done, stall

        def time_l2(now: float, line_addr: int, code: int):
            bank = line_addr // l2_line % n_banks
            at = bank_free[bank]
            start = at if at > now else now
            bank_free[bank] = start + 1.0  # pipelined, 1-cycle occupancy
            if code == L2:
                return now, start + l2_hit, start - now
            grant, stall = l2_acquire(start)
            now = grant + l2_hit
            if code == LLC:
                done = now + llc_hit
            else:
                grant_llc, stall_llc = llc_acquire(now)
                done = service(grant_llc + llc_hit)[1]
                if code > DRAM:
                    writeback(done)
                    if code > DRAM + 1:
                        writeback(done)
                llc_release(done)
                stall = stall + stall_llc
            l2_release(done)
            return grant, done, stall

        def time_l1(now: float, line_addr: int, code: int):
            if code == L1:
                return now, now + l1_hit, 0.0
            grant, stall_l1 = l1_acquire(now)
            now = grant + l1_hit
            bank = line_addr // l2_line % n_banks
            at = bank_free[bank]
            start = at if at > now else now
            bank_free[bank] = start + 1.0  # pipelined, 1-cycle occupancy
            if code == L2:
                done, stall = start + l2_hit, start - now
            else:
                grant_l2, stall = l2_acquire(start)
                now = grant_l2 + l2_hit
                if code == LLC:
                    done = now + llc_hit
                else:
                    grant_llc, stall_llc = llc_acquire(now)
                    done = service(grant_llc + llc_hit)[1]
                    if code > DRAM:
                        writeback(done)
                        if code > DRAM + 1:
                            writeback(done)
                    llc_release(done)
                    stall = stall + stall_llc
                l2_release(done)
            l1_release(done)
            return grant, done, stall_l1 + stall

        return {"l1": time_l1, "l2": time_l2, "llc": time_llc}[port]

    def walk_ahead(self, lines: Sequence[int], is_store: bool,
                   port: str = "l1") -> None:
        """Walk the tags of a request list in one call, ahead of timing
        it, so that each of its requests' :meth:`access` only times a
        code; a replaying model only checks that its record holds the
        list.  Every code walked must be timed before the next walk."""
        codes = self._codes
        if self._replaying is None:
            if self._pos != len(codes):
                raise MemoryModelError(
                    f"walk_ahead() with {len(codes) - self._pos} walked "
                    f"requests not yet timed")
            self._walkers[port](lines, is_store)
        elif self._pos + len(lines) > len(codes):
            raise MemoryModelError(
                f"replay handed more requests than the {len(codes)} its "
                f"record holds")

    # -- public ports ---------------------------------------------------------

    def access(self, now: float, line_addr: int, is_store: bool,
               port: str = "l1") -> Tuple[float, float, str, float]:
        """Issue one cache-line request on the given port: walk its tags
        (unless replaying), then time its code.  Returns ``(grant, done,
        level, mshr_stall)``: when the request was accepted, when its
        data is available, the level that served it (``'l1'``,
        ``'l2'``, ``'llc'`` or ``'dram'``) and how long it waited to be
        sent.  A request on the vector (LLC) port also counts toward
        Figure 8's accounting."""
        codes = self._codes
        pos = self._pos
        try:
            timer = self._timers[port]
        except KeyError:
            raise MemoryModelError(
                f"unknown port {port!r} (expected one of {PORTS})") from None
        if pos == len(codes):
            if self._replaying is not None:
                raise MemoryModelError(
                    f"replay handed more requests than the "
                    f"{len(codes)} its record holds")
            self._walkers[port]((line_addr,), is_store)
        self._pos = pos + 1
        code = codes[pos]
        grant, done, stall = timer(now, line_addr, code)
        if port == "llc":
            self.vector_requests += 1
            self.vector_mshr_stall += stall
            if stall > 0:
                self.vector_stalled_requests += 1
        return grant, done, LEVELS[code], stall

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

        A walking model walks the whole list's tags first (tags never
        read time), so the stream's codes are known before it is timed.
        The stream state lives in locals, and a request whose code is a
        hit in the port's first level resolves inline: the LLC hit
        (EVE's VMU), the L2 bank delay plus hit (DV), the L1 hit behind
        the ``window`` slot (IV's LSQ).  Every other request goes
        through :meth:`access`, so the miss path (MSHRs, DRAM, the
        vector-port counters) is written once.  On a model that
        observes, each inline hit is handed to ``_observe`` before the
        next request issues, so a hooked model observes every request
        in request order.  With no window, no L2 bank and no observer,
        :meth:`_stream_runs` times the list run by run.

        Results are byte-identical to issuing every request through
        :meth:`access` under the issue rule ``max(at, grant) +
        interval``: an inline hit evaluates the timing replay's float
        operations in its order, and its grant is its issue time.  The
        additions a hit skips are ``+ 0.0`` stalls.
        """
        if port == "llc":
            hit, hit_latency, banks = LLC, self._llc_hit, None
        elif port == "l2":
            hit, hit_latency = L2, self._l2_hit
            banks = self._l2_bank_free
        elif port == "l1":
            hit, hit_latency, banks = L1, self._l1_hit, None
        else:
            raise MemoryModelError(
                f"unknown port {port!r} (expected one of {PORTS})")
        self.walk_ahead(lines, is_store, port)
        if not self.observes and window is None and banks is None:
            return self._stream_runs(start, lines, is_store, port, interval,
                                     hit, hit_latency)
        codes = self._codes
        pos = self._pos
        access = self.access
        observe = self._observe if self.observes else None
        acquire = release = None
        if window is not None:
            acquire, release = window.acquire, window.release
        line_bytes = self._l2_line
        n_banks = len(banks) if banks is not None else 0
        t = last_done = start
        first_done = None
        stall = 0.0
        hits = 0
        for line_addr in lines:
            at = t if acquire is None else acquire(t)[0]
            if codes[pos] != hit:
                self._pos = pos
                grant, done, _, mshr_stall = access(at, line_addr, is_store,
                                                    port)
                stall += mshr_stall
                t = (grant if grant > at else at) + interval
            else:
                hits += 1
                if banks is None:
                    done = at + hit_latency
                    wait = 0.0
                else:
                    bank = line_addr // line_bytes % n_banks
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
            pos += 1
            if release is not None:
                release(done)
            if first_done is None:
                first_done = done
            if done > last_done:
                last_done = done
        self._pos = pos
        if port == "llc":
            self.vector_requests += hits
        if first_done is None:
            first_done = start
        return t, first_done, last_done, stall

    def _stream_runs(self, start: float, lines: Sequence[int],
                     is_store: bool, port: str, interval: float, hit: int,
                     hit_latency: float
                     ) -> Tuple[float, float, float, float]:
        """:meth:`stream` when a first-level hit needs nothing but its
        issue time: no LSQ window, no L2 bank, no observer.

        Each run of consecutive hits only advances the issue clock, one
        ``t = at + interval`` per hit, and is closed once with its last
        hit's ``done``; the misses go through :meth:`access` as in
        :meth:`stream`.  It answers what :meth:`stream`'s per-request
        loop answers, byte for byte: it makes the same float additions
        in the same order; within a run each hit issues no earlier than
        the one before it, so the run's last hit has its latest ``done``;
        and a stream that opens with a hit has first ``done`` ``start +
        hit_latency``.
        """
        base = self._pos
        n = len(lines)
        # 1 where a request misses the first level, 0 where it hits.
        misses = self._codes[base:base + n].translate(_MISS_MASK[hit])
        access = self.access
        t = last_done = start
        first_done = start + hit_latency if n and not misses[0] else None
        stall = 0.0
        hits = 0
        i = 0
        while i < n:
            if misses[i]:
                self._pos = base + i
                grant, done, _, mshr_stall = access(t, lines[i], is_store,
                                                    port)
                stall += mshr_stall
                t = (grant if grant > t else t) + interval
                if first_done is None:
                    first_done = done
                i += 1
            else:
                end = misses.find(1, i)
                if end < 0:
                    end = n
                hits += end - i
                for _ in repeat(None, end - i - 1):
                    t += interval
                done = t + hit_latency
                t += interval
                i = end
            if done > last_done:
                last_done = done
        self._pos = base + n
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
    through :meth:`access`; with the tracer or metrics on, the model
    :attr:`~FastMemorySystem.observes`, and the kernel's inline hits go
    to :meth:`_observe`, which :meth:`access` calls for every other
    request.  The flag is a plain bool, not a stored bound method, so
    the model holds no reference to itself."""

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
        # The timers close over the channel: bind them to the hooked one.
        self._timers = {port: self._timer(port) for port in PORTS}
        #: Pre-bound per-port latency histograms (no-ops when disabled).
        self._latency_hist = {
            port: self.metrics.histogram(f"mem.{port}.latency")
            for port in PORTS}
        self.observes = self.tracer.enabled or self.metrics.enabled

    def access(self, now: float, line_addr: int, is_store: bool,
               port: str = "l1") -> Tuple[float, float, str, float]:
        """Issue one cache-line request on the given port."""
        result = super().access(now, line_addr, is_store, port)
        self._observe(now, line_addr, is_store, port, *result)
        return result

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
