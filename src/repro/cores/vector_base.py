"""Shared machinery for the vector machine models (IV / DV / EVE).

Vector traces interleave scalar bookkeeping blocks with vector
instructions.  All three vector machines run their scalar blocks on the
same embedded out-of-order control-processor model and track per-register
ready times for dependencies; they differ in how vector instructions are
timed.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..isa.instructions import MemAccess, ScalarBlock, VectorInstr
from .machine import Machine


class VectorMachineBase(Machine):
    """Common state: register scoreboard, scalar blocks, memory streams."""

    METRIC_PREFIXES = ("sim", "breakdown")

    # -- scoreboard ------------------------------------------------------

    def deps_ready(self, instr: VectorInstr) -> float:
        return max((self.reg_ready.get(r, 0.0) for r in instr.sources),
                   default=0.0)

    def set_ready(self, reg: int, at: float) -> None:
        if reg >= 0:
            self.reg_ready[reg] = at

    def reset(self) -> None:
        """A cold machine (see :meth:`Machine.reset`) with an empty
        scoreboard."""
        super().reset()
        #: vector register -> time its value is ready
        self.reg_ready: Dict[int, float] = {}

    # -- scalar control blocks -----------------------------------------------

    def run_scalar_block(self, now: float, block: ScalarBlock,
                         lines) -> float:
        """Out-of-order control processor running bookkeeping code.

        ``lines`` is the block's hoisted per-pattern line lists
        (:meth:`~repro.compiler.CompiledTrace.lines_for`).
        """
        core = self.config.core
        issue_cycles = block.n_instr * core.base_cpi
        end = now + issue_cycles
        t = now
        access = self.mem.access
        walk_ahead = self.mem.walk_ahead
        for pattern, pattern_lines in zip(block.accesses, lines):
            is_store = pattern.is_store
            walk_ahead(pattern_lines, is_store)
            for line in pattern_lines:
                done = access(t, line, is_store)[1]
                exposed = (done - t) * (1.0 - core.miss_overlap)
                end = max(end, t + exposed)
                t += 1.0
        if self.attr.enabled:
            # Charge the block's issue slots as busy and any exposed miss
            # latency beyond them as memory stall, to the current trace
            # event (the machine loop set the context to this block).
            stall = max(0.0, (end - now) - issue_cycles)
            self.attr.charge("core", "busy", issue_cycles)
            self._core_busy += issue_cycles
            self.attr.charge("core", "mem_stall", stall)
            self._core_stall += stall
            self.attr.span(now, end)
        if self.tracer.enabled and end > now:
            self.tracer.span("Core", "scalar_block", now, end,
                             n_instr=block.n_instr)
        return end

    # -- memory streams ---------------------------------------------------------

    def stream_lines(self, start: float, pattern: MemAccess, lines,
                     port: str, issue_interval: float = 1.0
                     ) -> Tuple[float, float, float]:
        """Issue a memory pattern's hoisted request list as a pipelined
        stream on ``port``.  Returns
        ``(first_done, last_done, mshr_stall_total)``.
        """
        t, first_done, last_done, stall_total = self.mem.stream(
            start, lines, pattern.is_store, port, issue_interval)
        if self.tracer.enabled and lines:
            self.tracer.span(
                "VMU", f"stream:{'st' if pattern.is_store else 'ld'}",
                start, t, n_requests=len(lines), mshr_stall=stall_total)
        return float(first_done), float(last_done), stall_total
