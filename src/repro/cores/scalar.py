"""Trace-driven scalar core models (the IO and O3 baselines).

Scalar work is modelled at block granularity: a block of ``n`` instructions
costs ``n * CPI`` issue cycles, and each cache-line request runs through
the real memory hierarchy.  The in-order core blocks on every miss; the
out-of-order core hides a calibrated fraction of each miss penalty and
overlaps multiple misses (memory-level parallelism bounded by its L1
MSHRs, which the hierarchy's token pools enforce).
"""

from __future__ import annotations

from ..errors import SimulationError
from ..isa.instructions import ScalarBlock
from ..isa.trace import Trace
from .machine import Machine
from .result import SimResult


class ScalarCore(Machine):
    """The IO / O3 scalar baselines (selected by ``config.core.kind``)."""

    def run(self, trace: Trace, compiled=None) -> SimResult:
        compiled = self._start(trace, compiled)
        core = self.config.core
        tracer = self.tracer
        attr = self.attr
        lines_for = compiled.lines_for
        now = 0.0
        instructions = 0
        for idx, event in compiled.iter_events():
            if not isinstance(event, ScalarBlock):
                raise SimulationError(
                    f"scalar core {self.config.name} fed a vector trace; "
                    "run the workload's scalar_trace instead")
            if attr.enabled:
                attr.set_node(idx)
            instructions += event.n_instr
            issue_cycles = event.n_instr * core.base_cpi
            block_start = now
            if core.kind == "io":
                now = self._run_block_blocking(now, event, issue_cycles,
                                               lines_for(idx))
            else:
                now = self._run_block_overlapped(now, event, issue_cycles,
                                                 lines_for(idx))
            if attr.enabled:
                stall = max(0.0, (now - block_start) - issue_cycles)
                attr.charge("core", "busy", issue_cycles, node=idx)
                self._core_busy += issue_cycles
                attr.charge("core", "mem_stall", stall, node=idx)
                self._core_stall += stall
                attr.span(block_start, now, node=idx)
            if tracer.enabled and now > block_start:
                tracer.span("Core", "scalar_block", block_start, now,
                            n_instr=event.n_instr)
        return self._result(trace, now, instructions, {},
                            timeline_units=("core",))

    def _run_block_blocking(self, now: float, block: ScalarBlock,
                            issue_cycles: float, lines) -> float:
        """In-order: every miss stalls the pipeline for its full latency."""
        l1_hit = self.config.l1d.hit_latency
        now += issue_cycles
        access = self.mem.access
        walk_ahead = self.mem.walk_ahead
        for pattern, pattern_lines in zip(block.accesses, lines):
            is_store = pattern.is_store
            walk_ahead(pattern_lines, is_store)
            for line in pattern_lines:
                done = access(now, line, is_store)[1]
                if done - l1_hit > now:
                    now = done - l1_hit
        return now

    def _run_block_overlapped(self, now: float, block: ScalarBlock,
                              issue_cycles: float, lines) -> float:
        """Out-of-order: misses overlap with issue and with each other.

        Each request is launched along the issue timeline; the block
        retires when issue finishes and the unhidden fraction of the
        longest-latency miss has been absorbed.
        """
        core = self.config.core
        l1_hit = self.config.l1d.hit_latency
        end_issue = now + issue_cycles
        n_lines = sum(len(pattern_lines) for pattern_lines in lines) or 1
        spacing = issue_cycles / n_lines
        exposed_end = now
        t_issue = now
        access = self.mem.access
        walk_ahead = self.mem.walk_ahead
        for pattern, pattern_lines in zip(block.accesses, lines):
            is_store = pattern.is_store
            walk_ahead(pattern_lines, is_store)
            for line in pattern_lines:
                latency = access(t_issue, line, is_store)[1] - t_issue
                exposed = (latency - l1_hit) * (1.0 - core.miss_overlap)
                exposed_end = max(exposed_end, t_issue + l1_hit + max(0.0, exposed))
                t_issue += spacing
        return max(end_issue, exposed_end)
