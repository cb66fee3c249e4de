"""Timing models of EVE's helper units (Section V).

* :class:`VmuModel` — generates cache-line requests on the LLC port (one
  per cycle, cache-line aligned, a TLB translation folded into the
  request-generation cycle) and tracks the Figure 8 stall metric.
* :class:`DtuPool` — eight data-transpose units; a line costs one cycle
  per segment to (de)transpose, and bit-parallel EVE-32 data needs no
  transpose at all (Section VII-B).
* :class:`VruModel` — streams one segment row per cycle into E detranspose
  ports, runs the dot-operation pipeline, then a linear reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..isa.instructions import MemAccess
from ..mem.hierarchy import FastMemorySystem
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.tracer import NULL_TRACER, SpanTracer


@dataclass
class StreamResult:
    """Outcome of one VMU line stream."""

    issue_end: float   # when the VMU finished generating requests
    first_done: float  # first line's data available
    last_done: float   # all lines' data available
    mshr_stall: float  # total time blocked on LLC MSHRs (Figure 8)
    n_lines: int


class VmuModel:
    """The vector memory unit: request generation + LLC port."""

    #: Request generation + TLB translation per line (Section VII-A).
    CYCLES_PER_REQUEST = 1.0

    def __init__(self, mem: FastMemorySystem) -> None:
        self.mem = mem
        self.tracer = mem.tracer
        self.attr = mem.attr
        self.free_at = 0.0
        self.busy_cycles = 0.0
        self.stall_cycles = 0.0
        self.streams = 0

    def stream(self, start: float, pattern: MemAccess,
               lines) -> StreamResult:
        """Issue all line requests of one memory macro-operation:
        ``lines`` is its hoisted request list
        (:meth:`~repro.compiler.CompiledTrace.lines_for`)."""
        t, first_done, last_done, stall_total = self.mem.stream(
            start, lines, pattern.is_store, "llc", self.CYCLES_PER_REQUEST)
        self.free_at = t
        self.busy_cycles += t - start
        self.stall_cycles += stall_total
        self.streams += 1
        if self.attr.enabled:
            self.attr.charge("vmu", "busy", t - start)
            self.attr.charge("vmu", "mshr_stall", stall_total)
        if self.tracer.enabled:
            self.tracer.span(
                "VMU", f"stream:{'st' if pattern.is_store else 'ld'}",
                start, t, n_lines=len(lines), mshr_stall=stall_total,
                last_done=last_done)
        return StreamResult(issue_end=t, first_done=first_done,
                            last_done=last_done, mshr_stall=stall_total,
                            n_lines=len(lines))


class DtuPool:
    """Eight transpose units shared by loads and stores."""

    def __init__(self, num_dtus: int, segments: int, bit_parallel: bool,
                 tracer: Optional[SpanTracer] = None,
                 attribution=None) -> None:
        self.num_dtus = num_dtus
        #: Transposing one cache line touches every segment row once.
        self.cycles_per_line = 0.0 if bit_parallel else float(segments)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.attr = attribution if attribution is not None else NULL_ATTRIBUTION
        self.free_at = 0.0
        self.busy_cycles = 0.0
        self.lines_processed = 0

    def process(self, data_ready: float, n_lines: int) -> float:
        """Run ``n_lines`` through the pool; returns completion time."""
        if self.cycles_per_line == 0.0 or n_lines == 0:
            return data_ready
        start = max(data_ready, self.free_at)
        duration = n_lines * self.cycles_per_line / self.num_dtus
        self.free_at = start + duration
        self.busy_cycles += duration
        if self.attr.enabled:
            self.attr.charge("dtu", "busy", duration)
        self.lines_processed += n_lines
        if self.tracer.enabled:
            self.tracer.span("DTU", "transpose", start, start + duration,
                             n_lines=n_lines)
        return start + duration + self.cycles_per_line  # last line's latency


class VruModel:
    """The vector reduction / cross-element unit (Section V-D)."""

    #: Pipeline latency of the dot-operation tree.
    DOT_LATENCY = 4.0

    def __init__(self, segments: int, ports: int,
                 tracer: Optional[SpanTracer] = None,
                 attribution=None) -> None:
        self.segments = segments
        self.ports = ports  # E = port bits / n
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.attr = attribution if attribution is not None else NULL_ATTRIBUTION
        self.free_at = 0.0
        self.busy_cycles = 0.0
        self.operations = 0

    def reduce(self, start: float, active_arrays: int) -> float:
        """One reduction: stream every array's register, then fold.

        Streaming reads one segment row per cycle per array; the final
        linear reduction folds the E accumulated elements.
        """
        begin = max(start, self.free_at)
        stream = active_arrays * self.segments
        duration = stream + self.DOT_LATENCY + self.ports
        self.free_at = begin + duration
        self.busy_cycles += duration
        if self.attr.enabled:
            self.attr.charge("vru", "busy", duration)
        self.operations += 1
        if self.tracer.enabled:
            self.tracer.span("VRU", "reduce", begin, begin + duration,
                             arrays=active_arrays)
        return begin + duration

    def cross_element(self, start: float, active_arrays: int) -> float:
        """vrgather / slides: read stream + permuted write-back stream."""
        begin = max(start, self.free_at)
        duration = 2 * active_arrays * self.segments + self.DOT_LATENCY
        self.free_at = begin + duration
        self.busy_cycles += duration
        if self.attr.enabled:
            self.attr.charge("vru", "busy", duration)
        self.operations += 1
        if self.tracer.enabled:
            self.tracer.span("VRU", "cross_element", begin, begin + duration,
                             arrays=active_arrays)
        return begin + duration
