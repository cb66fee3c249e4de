"""Micro-program execution: bit-exact against an EVE SRAM, or timing-only.

The engine models the VSU's per-cycle behaviour: each cycle it fetches one
VLIW tuple and executes its counter μop, arithmetic μop, and control μop in
order (Section IV-B).  Arithmetic μops are dispatched to the
:class:`~repro.sram.EveSram`; with ``sram=None`` they are skipped, which is
the paper's function/timing separation — control flow is data-independent,
so the cycle count is exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from ..errors import MicroExecutionError
from ..faults.inject import NULL_FAULTS
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanTracer
from ..sram.eve_sram import EveSram
from ..sram.layout import RegisterLayout
from ..sram.words import Lanes, lane_masks
from .counters import CounterFile
from .program import MicroProgram
from .uop import ArithUop, ControlUop, CounterSeg, CounterUop, DataIn, RowRef, SegSpec

#: Default watchdog limit: no macro-op on a 32-bit element comes near this.
MAX_CYCLES = 1_000_000


@lru_cache(maxsize=None)
def _base_rows(layout: RegisterLayout) -> Tuple[int, ...]:
    """Base-row table: segment ``s`` of ``vreg`` sits at row
    ``table[vreg] + s``."""
    return tuple(layout.row_of(vreg, 0) for vreg in range(layout.num_vregs))


@dataclass
class Binding:
    """Resolution context for one macro-operation instance."""

    layout: RegisterLayout
    regs: Dict[str, int] = field(default_factory=dict)
    scalar: int = 0

    def vreg(self, slot: str) -> int:
        try:
            return self.regs[slot]
        except KeyError:
            raise MicroExecutionError(f"register slot {slot!r} not bound") from None


class MicroEngine:
    """Executes micro-programs; owns a counter file across invocations.

    ``max_cycles`` is the watchdog: the dynamic backstop to the static
    termination check (lint rule 5).  A program still running after that
    many cycles raises :class:`MicroExecutionError` instead of hanging.
    """

    def __init__(self, counters: Optional[CounterFile] = None,
                 max_cycles: int = MAX_CYCLES,
                 tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 faults=None) -> None:
        if max_cycles <= 0:
            raise MicroExecutionError("watchdog limit must be positive")
        self.counters = counters if counters is not None else CounterFile()
        self.max_cycles = max_cycles
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.faults = faults if faults is not None else NULL_FAULTS
        self.metrics.reserve("uprog", "MicroEngine")
        #: Cumulative cycles across invocations — the engine's own
        #: timeline, which the tracer's "uProg" track is plotted on.
        self.total_cycles = 0

    # -- resolution helpers ----------------------------------------------

    def _seg_index(self, seg: SegSpec) -> int:
        if isinstance(seg, CounterSeg):
            counter = self.counters[seg.counter]
            return seg.base + seg.step * counter.index
        return int(seg)

    def _resolver(self, binding: Binding) -> Callable[[RowRef], int]:
        """Row resolution for one bit-exact run: each bound slot's base
        row comes from the layout's base-row table once, and a reference
        adds its segment, read inline from its counter's ``index`` when
        it is counter-addressed.  An unbound slot or an out-of-range
        register or segment falls back to the layout's own arithmetic,
        which raises the error it always has."""
        layout = binding.layout
        bases = _base_rows(layout)
        segments = layout.segments
        slot_rows = {slot: bases[vreg] for slot, vreg in binding.regs.items()
                     if 0 <= vreg < len(bases)}
        counters = self.counters

        def row(ref: RowRef) -> int:
            base = slot_rows.get(ref.reg)
            if base is not None:
                seg = ref.seg
                if isinstance(seg, CounterSeg):
                    seg = seg.base + seg.step * counters[seg.counter].index
                if 0 <= seg < segments:
                    return base + seg
            return layout.row_of(binding.vreg(ref.reg),
                                 self._seg_index(ref.seg))
        return row

    def _data_in(self, spec: DataIn, binding: Binding, lanes: Lanes) -> int:
        """The data-in pattern as a word (flags replicate per group)."""
        kind = spec.kind
        if kind == "zeros":
            return 0
        if kind == "ones":
            return lanes.full
        if kind == "lsb_ones":
            return lanes.lsb
        if kind == "msb_ones":
            return lanes.msb
        # scalar_seg: broadcast one segment of the scalar operand.
        factor = lanes.factor
        seg = self._seg_index(spec.seg)
        unsigned = binding.scalar & ((1 << binding.layout.element_bits) - 1)
        return lanes.lsb * ((unsigned >> (seg * factor)) & ((1 << factor) - 1))

    # -- μop dispatch -----------------------------------------------------

    def _apply_counter(self, uop: CounterUop) -> None:
        if uop.kind == "none":
            return
        counter = self.counters[uop.counter]
        if uop.kind == "init":
            counter.init(uop.value)
        elif uop.kind == "decr":
            counter.decr()
        else:
            counter.incr()

    def _apply_arith(self, uop: ArithUop, sram: EveSram, binding: Binding,
                     row: Callable[[RowRef], int], lanes: Lanes) -> None:
        if uop.data_in is not None:
            sram.data_in_word = self._data_in(uop.data_in, binding, lanes)
        kind = uop.kind
        if kind == "nop":
            return
        if kind == "rd":
            sram.u_rd(row(uop.a))
        elif kind == "wr":
            sram.u_wr(row(uop.a), masked=uop.masked)
        elif kind == "blc":
            sram.u_blc(row(uop.a), row(uop.b))
        elif kind == "wb":
            dest = uop.dest
            if isinstance(dest, RowRef):
                dest = row(dest)
            sram.u_wb(dest, uop.src, masked=uop.masked)
        elif kind == "lshift":
            sram.u_lshift(conditional=uop.conditional)
        elif kind == "rshift":
            sram.u_rshift(conditional=uop.conditional)
        elif kind == "lrot":
            sram.u_lrotate(conditional=uop.conditional)
        elif kind == "rrot":
            sram.u_rrotate(conditional=uop.conditional)
        elif kind == "mask_shft":
            sram.u_mask_shft()
        elif kind == "mask_shftl":
            sram.u_mask_shftl()
        elif kind == "mask_carry":
            sram.u_mask_from_carry(invert=uop.invert, lsb_only=uop.lsb_only)
        elif kind == "sclr":
            sram.u_spare_clear()
        else:  # pragma: no cover - guarded by ArithUop validation
            raise MicroExecutionError(f"unhandled arithmetic μop {kind!r}")

    def _apply_control(self, uop: ControlUop, program: MicroProgram,
                       next_upc: int) -> tuple[int, bool]:
        """Returns (next μpc, returned?)."""
        if uop.kind == "none":
            return next_upc, False
        if uop.kind == "ret":
            return next_upc, True
        if uop.kind == "jmp":
            return program.target(uop.target), False
        counter = self.counters[uop.counter]
        if uop.kind == "bnz":
            if counter.consume_zero():
                return next_upc, False  # wrapped: fall through, flag consumed
            return program.target(uop.target), False
        # bnd: branch when a binary decade was reached; consume on taken.
        if counter.decade_flag:
            counter.consume_decade()
            return program.target(uop.target), False
        return next_upc, False

    # -- main loop -------------------------------------------------------------

    def run(self, program: MicroProgram, sram: Optional[EveSram] = None,
            binding: Optional[Binding] = None,
            histogram: Optional[Dict[str, int]] = None,
            max_cycles: Optional[int] = None) -> int:
        """Execute ``program``; returns the cycle count.

        With ``sram=None`` the arithmetic μops are skipped (timing-only
        mode).  A bound SRAM requires a binding for address resolution.
        ``histogram`` (if given) accumulates dynamic arithmetic-μop counts
        by kind — control flow is data-independent, so the histogram is
        exact even in timing-only mode (the energy model uses this).
        ``max_cycles`` overrides the engine's watchdog limit for this run.
        """
        if sram is not None and binding is None:
            raise MicroExecutionError("bit-exact execution requires a binding")
        if self.faults.enabled:
            self.faults.on_program(program.name)
        if sram is not None:
            row = self._resolver(binding)
            lanes = lane_masks(sram.cols, binding.layout.factor)
        limit = self.max_cycles if max_cycles is None else max_cycles
        upc = 0
        cycles = 0
        n = len(program.tuples)
        while upc < n:
            tup = program.tuples[upc]
            cycles += 1
            if cycles > limit:
                raise MicroExecutionError(
                    f"{program.name}: watchdog tripped after {limit} cycles "
                    "(non-terminating micro-program?)")
            if tup.counter is not None:
                self._apply_counter(tup.counter)
            if tup.arith is not None:
                if histogram is not None:
                    histogram[tup.arith.kind] = histogram.get(tup.arith.kind, 0) + 1
                if sram is not None:
                    self._apply_arith(tup.arith, sram, binding, row, lanes)
            next_upc = upc + 1
            if tup.control is not None:
                next_upc, returned = self._apply_control(tup.control, program, next_upc)
                if returned:
                    break
            upc = next_upc
        begin = self.total_cycles
        self.total_cycles += cycles
        if self.tracer.enabled:
            self.tracer.span("uProg", program.name, begin, self.total_cycles,
                             cycles=cycles)
        if self.metrics.enabled:
            self.metrics.counter("uprog.invocations").inc()
            self.metrics.histogram("uprog.cycles").observe(cycles)
        return cycles
