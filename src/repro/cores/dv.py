"""The decoupled vector engine baseline (O3+DV, Table III, Figure 5).

Loosely based on Tarantula: 64-element hardware vector length, in-order
issue to four execution pipes (simple integer, pipelined complex integer,
iterative complex/cross-element, memory), eight lanes per arithmetic pipe,
register chaining between dependent operations, and a detailed VMU issuing
cache-line requests on its private L2 port (one per cycle, one TLB
translation cycle folded into the request-generation interval).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..config import SystemConfig
from ..errors import SimulationError
from ..isa.instructions import ScalarBlock, VectorInstr
from ..isa.opcodes import Category
from ..isa.trace import Trace
from .result import SimResult
from .vector_base import VectorMachineBase

#: pipe name -> startup latency; occupancy is vl / lanes on that pipe.
PIPES = {
    "int_simple": 2.0,
    "int_complex": 4.0,
    "iterative": 6.0,
    "memory": 0.0,
}

LANES = 8

#: The pipelined complex-integer pipe carries two 32-bit multipliers.
MUL_LANES = 2

#: Iterative pipe processes this many elements per cycle (div, gathers).
ITERATIVE_RATE = 0.5


class DecoupledVectorMachine(VectorMachineBase):
    """O3+DV: long vectors, four pipes, chaining, dedicated VMU."""

    def __init__(self, config: SystemConfig, tracer=None, metrics=None,
                 attribution=None) -> None:
        if config.vector is None or config.vector.kind != "dv":
            raise SimulationError("DecoupledVectorMachine needs a 'dv' config")
        super().__init__(config, tracer=tracer, metrics=metrics,
                         attribution=attribution)
        self.vl = config.vector.hardware_vl

    def reset(self) -> None:
        super().reset()
        self._pipe_free: Dict[str, float] = {name: 0.0 for name in PIPES}
        #: Attribution totals of the "pipe" unit.
        self._pipe_cycles: Dict[str, float] = {name: 0.0 for name in PIPES}
        #: register -> (chain-ready time, fully-done time)
        self._chain: Dict[int, Tuple[float, float]] = {}

    def run(self, trace: Trace, compiled=None) -> SimResult:
        compiled = self._start(trace, compiled)
        tracer = self.tracer
        attr = self.attr
        lines_for = compiled.lines_for
        self._drain_node = -1
        vsu = {"busy": 0.0, "drain": 0.0}
        now = 0.0
        finish = 0.0
        instructions = 0
        for idx, event in compiled.iter_events():
            if attr.enabled:
                attr.set_node(idx)
            if isinstance(event, ScalarBlock):
                now = self.run_scalar_block(now, event, lines_for(idx))
                finish = max(finish, now)
                continue
            instr: VectorInstr = event
            instructions += 1
            issue_end, done = self._vector_instr(instr, now, lines_for(idx))
            if attr.enabled:
                # In-order issue: each vector instruction holds the issue
                # stage for one cycle; pipe occupancy is charged inside
                # _vector_instr under the "pipe" unit.
                slot = issue_end - now
                if slot > 0:
                    attr.charge("vsu", "busy", slot, node=idx)
                    vsu["busy"] += slot
                attr.span(now, max(done, issue_end), node=idx)
                if done >= finish:
                    self._drain_node = idx
            if tracer.enabled and done > now:
                tracer.span("VSU", instr.op, now, done, vl=instr.vl)
            now = issue_end  # in-order issue
            finish = max(finish, done)
        total = max(now, finish)
        if attr.enabled:
            drain = total - now
            if drain > 0:
                attr.charge("vsu", "drain", drain, node=self._drain_node)
                vsu["drain"] += drain
        return self._result(trace, total, instructions,
                            {"vsu": vsu, "pipe": dict(self._pipe_cycles)},
                            timeline_units=("vsu", "core"))

    # -- dependency helpers (chaining) ------------------------------------------

    def _source_ready(self, instr: VectorInstr, chained: bool) -> float:
        ready = 0.0
        for reg in instr.sources:
            chain_at, done_at = self._chain.get(reg, (0.0, 0.0))
            ready = max(ready, chain_at if chained else done_at)
        return ready

    def _set_times(self, reg: int, chain_at: float, done_at: float) -> None:
        if reg >= 0:
            self._chain[reg] = (chain_at, done_at)
            self.set_ready(reg, done_at)

    # -- one vector instruction -----------------------------------------------------

    def _vector_instr(self, instr: VectorInstr, now: float,
                      lines) -> Tuple[float, float]:
        category = instr.category
        if category is Category.CTRL:
            return now + 1.0, now + 1.0
        if category.is_memory:
            return self._memory_instr(instr, now, lines)

        pipe, startup, occupancy = self._compute_timing(instr)
        # Issue is dispatch-to-pipe-queue: one cycle, independent of
        # operand readiness (operands are awaited at the pipe, chained).
        start = max(now, self._pipe_free[pipe],
                    self._source_ready(instr, chained=True))
        self._pipe_free[pipe] = start + occupancy
        if self.attr.enabled:
            self.attr.charge("pipe", pipe, occupancy)
            self._pipe_cycles[pipe] += occupancy
        done = start + startup + occupancy
        # A chained consumer may start one startup behind this producer.
        self._set_times(instr.dest, start + startup + 1.0, done)
        return now + 1.0, done

    def _compute_timing(self, instr: VectorInstr) -> Tuple[str, float, float]:
        vl = max(1, instr.vl)
        if instr.category is Category.IMUL:
            if instr.info.macro == "div":
                return "iterative", PIPES["iterative"], vl / ITERATIVE_RATE / LANES
            return "int_complex", PIPES["int_complex"], vl / MUL_LANES
        if instr.category is Category.XELEM:
            return "iterative", PIPES["iterative"], vl / (LANES * ITERATIVE_RATE)
        return "int_simple", PIPES["int_simple"], vl / LANES

    def _memory_instr(self, instr: VectorInstr, now: float,
                      lines) -> Tuple[float, float]:
        # Address generation occupies the memory pipe as soon as the index
        # register (if any) is ready; store *data* may arrive later — the
        # store queue decouples it, so later loads are not serialised
        # behind a store waiting on its producer.
        addr_start = max(now, self._pipe_free["memory"])
        if instr.vidx >= 0:
            addr_start = max(addr_start, self._chain.get(instr.vidx, (0.0, 0.0))[1])
        # Write-allocate fetches launch at address time; the store only
        # *completes* once its data has arrived from the producer.
        first_done, last_done, _ = self.stream_lines(
            addr_start, instr.mem, lines, port="l2", issue_interval=1.0)
        if instr.info.is_store and instr.vd >= 0:
            last_done = max(last_done, self._chain.get(instr.vd, (0.0, 0.0))[1])
        n_requests = len(lines)
        self._pipe_free["memory"] = addr_start + n_requests
        if self.attr.enabled:
            self.attr.charge("pipe", "memory", float(n_requests))
            self._pipe_cycles["memory"] += float(n_requests)
        if instr.info.is_load:
            # Loads chain: a consumer can start once the first line is back.
            self._set_times(instr.dest, first_done + 1.0, last_done)
        return now + 1.0, last_done
