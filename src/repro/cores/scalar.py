"""Trace-driven scalar core models (the IO and O3 baselines).

Scalar work is modelled at block granularity: a block of ``n`` instructions
costs ``n * CPI`` issue cycles, and each cache-line request runs through
the real memory hierarchy.  The in-order core blocks on every miss; the
out-of-order core hides a calibrated fraction of each miss penalty and
overlaps multiple misses (memory-level parallelism bounded by its L1
MSHRs, which the hierarchy's token pools enforce).
"""

from __future__ import annotations

from typing import Optional

from ..config import SystemConfig
from ..errors import SimulationError
from ..isa.instructions import ScalarBlock
from ..isa.trace import Trace
from ..mem.hierarchy import memory_system
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanTracer
from .result import SimResult


class ScalarCore:
    """The IO / O3 scalar baselines (selected by ``config.core.kind``)."""

    def __init__(self, config: SystemConfig,
                 tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 attribution=None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.attr = (attribution if attribution is not None
                     else NULL_ATTRIBUTION)
        self.metrics.reserve("sim", "ScalarCore")
        self.mem = memory_system(config, self.tracer, self.metrics,
                                 self.attr)

    def run(self, trace: Trace, compiled=None) -> SimResult:
        core = self.config.core
        tracer = self.tracer
        attr = self.attr
        # Every run starts on a cold hierarchy.
        self.mem = memory_system(self.config, tracer, self.metrics, attr)
        if compiled is None:
            events = enumerate(trace)
            lines_for = None
        else:
            events = compiled.iter_events()
            lines_for = compiled.lines_for
        now = 0.0
        instructions = 0
        core_busy = 0.0
        core_stall = 0.0
        for idx, event in events:
            if not isinstance(event, ScalarBlock):
                raise SimulationError(
                    f"scalar core {self.config.name} fed a vector trace; "
                    "run the workload's scalar_trace instead")
            if attr.enabled:
                attr.set_node(idx)
            instructions += event.n_instr
            issue_cycles = event.n_instr * core.base_cpi
            block_start = now
            lines = lines_for(idx) if lines_for is not None else None
            if core.kind == "io":
                now = self._run_block_blocking(now, event, issue_cycles,
                                               lines)
            else:
                now = self._run_block_overlapped(now, event, issue_cycles,
                                                 lines)
            if attr.enabled:
                stall = max(0.0, (now - block_start) - issue_cycles)
                attr.charge("core", "busy", issue_cycles, node=idx)
                core_busy += issue_cycles
                attr.charge("core", "mem_stall", stall, node=idx)
                core_stall += stall
                attr.span(block_start, now, node=idx)
            if tracer.enabled and now > block_start:
                tracer.span("Core", "scalar_block", block_start, now,
                            n_instr=event.n_instr)
        if tracer.enabled:
            tracer.span("Machine", f"execute:{trace.name}", 0.0, now,
                        system=self.config.name, instructions=instructions)
        result = SimResult(
            system=self.config.name, workload=trace.name, cycles=now,
            cycle_time_ns=self.config.cycle_time_ns, instructions=instructions,
            mem_stats=self.mem.level_stats(now),
        )
        if self.metrics.enabled:
            self.metrics.gauge("sim.cycles").set(result.cycles)
            self.metrics.counter("sim.instructions").inc(result.instructions)
            self.mem.populate_metrics(result.cycles)
            result.metrics = self.metrics.snapshot()
        if attr.enabled:
            mem = self.mem
            expected = {
                "core": {"busy": core_busy, "mem_stall": core_stall},
                "dram": {"busy": mem.dram.busy_cycles},
                "mshr": {pool.name: pool.stall_cycles
                         for pool in (mem.l1d_mshrs, mem.l2_mshrs,
                                      mem.llc_mshrs)},
            }
            attr.finish(now, expected, timeline_units=("core",))
            result.unit_cycles = {unit: dict(buckets)
                                  for unit, buckets in expected.items()}
        return result

    def _run_block_blocking(self, now: float, block: ScalarBlock,
                            issue_cycles: float, lines=None) -> float:
        """In-order: every miss stalls the pipeline for its full latency."""
        l1_hit = self.config.l1d.hit_latency
        now += issue_cycles
        if lines is None:
            lines = [pattern.request_lines(False)
                     for pattern in block.accesses]
        access = self.mem.access
        for pattern, pattern_lines in zip(block.accesses, lines):
            is_store = pattern.is_store
            for line in pattern_lines:
                completion = access(now, line, is_store)
                if completion.done - l1_hit > now:
                    now = completion.done - l1_hit
        return now

    def _run_block_overlapped(self, now: float, block: ScalarBlock,
                              issue_cycles: float, lines=None) -> float:
        """Out-of-order: misses overlap with issue and with each other.

        Each request is launched along the issue timeline; the block
        retires when issue finishes and the unhidden fraction of the
        longest-latency miss has been absorbed.
        """
        core = self.config.core
        l1_hit = self.config.l1d.hit_latency
        end_issue = now + issue_cycles
        if lines is None:
            lines = [pattern.request_lines(False)
                     for pattern in block.accesses]
        n_lines = sum(len(pattern_lines) for pattern_lines in lines) or 1
        spacing = issue_cycles / n_lines
        exposed_end = now
        t_issue = now
        access = self.mem.access
        for pattern, pattern_lines in zip(block.accesses, lines):
            is_store = pattern.is_store
            for line in pattern_lines:
                completion = access(t_issue, line, is_store)
                latency = completion.done - t_issue
                exposed = (latency - l1_hit) * (1.0 - core.miss_overlap)
                exposed_end = max(exposed_end, t_issue + l1_hit + max(0.0, exposed))
                t_issue += spacing
        return max(end_issue, exposed_end)
