"""Single-channel DDR4-2400-like main-memory model.

Each line request pays a fixed access latency and occupies the channel for
its transfer time (line size / peak bandwidth); requests serialise on the
channel, so a miss burst beyond the sustainable bandwidth queues — the
memory-bound plateau of vvadd and friends comes from here.

:class:`FastDramChannel` is the model; :class:`DramChannel` adds the
tracer and attribution hooks for instrumented runs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import DramConfig
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.tracer import NULL_TRACER, SpanTracer


class FastDramChannel:
    """A bandwidth-limited, fixed-latency memory channel."""

    __slots__ = ("config", "line_bytes", "transfer_cycles", "access_latency",
                 "_next_free", "requests", "writebacks", "busy_cycles")

    def __init__(self, config: DramConfig, line_bytes: int = 64) -> None:
        self.config = config
        self.line_bytes = line_bytes
        #: Channel occupancy of one line transfer.
        self.transfer_cycles = line_bytes / (config.bytes_per_cycle
                                             * config.channels)
        self.access_latency = config.access_latency
        self._next_free = 0.0
        self.requests = 0
        self.writebacks = 0
        self.busy_cycles = 0.0

    def service(self, now: float) -> Tuple[float, float]:
        """Issue one line request at ``now``.

        Returns ``(start, done)``: the transfer starts when the channel is
        free and data arrives a fixed access latency after that.
        """
        transfer = self.transfer_cycles
        next_free = self._next_free
        start = now if now > next_free else next_free
        self._next_free = start + transfer
        self.requests += 1
        self.busy_cycles += transfer
        return start, start + self.access_latency

    def writeback(self, now: float) -> float:
        """Queue a dirty-line writeback; only occupies bandwidth."""
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
        """Channel accounting (utilisation needs the run's total cycles)."""
        return {
            "requests": self.requests,
            "writebacks": self.writebacks,
            "busy_cycles": self.busy_cycles,
            "utilisation": self.utilisation(elapsed),
        }


class DramChannel(FastDramChannel):
    """:class:`FastDramChannel` plus per-transfer spans, a backlog counter
    track and ``dram``/``busy`` attribution charges."""

    __slots__ = ("tracer", "attr")

    def __init__(self, config: DramConfig, line_bytes: int = 64,
                 tracer: Optional[SpanTracer] = None,
                 attribution=None) -> None:
        super().__init__(config, line_bytes)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.attr = attribution if attribution is not None else NULL_ATTRIBUTION

    def service(self, now: float) -> Tuple[float, float]:
        start, done = super().service(now)
        self._observe("service", now, start, queued=start - now)
        return start, done

    def writeback(self, now: float) -> float:
        start = max(now, self._next_free)
        done = super().writeback(now)
        self._observe("writeback", now, start)
        return done

    def _observe(self, name: str, now: float, start: float, **args) -> None:
        transfer = self.transfer_cycles
        if self.attr.enabled:
            self.attr.charge("dram", "busy", transfer)
        if self.tracer.enabled:
            self.tracer.span("DRAM", name, start, start + transfer, **args)
            # Counter track: transfers still queued behind this one (the
            # backlog the serialised channel has accumulated).
            self.tracer.sample("DRAM", "dram_backlog", now,
                               (self._next_free - now) / transfer)
