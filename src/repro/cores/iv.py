"""The integrated vector unit baseline (O3+IV, Table III).

A small SIMD-style unit tightly coupled to the out-of-order core (loosely
Samsung M3 / SVE-class): 4-element hardware vector length, out-of-order
issue over three execution pipes shared with the core, and memory
operations decomposed through the core's load-store queue — constant-stride
and indexed accesses become one scalar request per element (Section
VII-A), which is the unit's structural weakness on long vectors.
"""

from __future__ import annotations

import math

from ..config import SystemConfig
from ..errors import SimulationError
from ..isa.instructions import ScalarBlock, VectorInstr
from ..isa.opcodes import Category
from ..isa.trace import Trace
from ..mem.mshr import MshrPool
from .result import SimResult
from .vector_base import VectorMachineBase

#: (startup latency, issue cycles per μop) for each macro class.
_PIPE_TIMING = {
    "ialu": (2.0, 0.5),    # two SIMD pipes issue ALU μops
    "imul": (5.0, 4.0),    # one iterative 4x32-bit multiplier, unpipelined
    "idiv": (16.0, 16.0),  # unpipelined iterative divider
    "xelem": (3.0, 1.0),
}


class IntegratedVectorMachine(VectorMachineBase):
    """O3+IV: 4-element VL, 3 shared exec pipes, LSQ memory decomposition."""

    #: Vector-capable LSQ port (memory μops per cycle).
    LSQ_PORTS = 1
    #: Outstanding vector misses the shared LSQ/ROB window sustains —
    #: the in-flight load slots the O3 core can dedicate to the unit.
    VECTOR_MLP = 12

    METRIC_PREFIXES = ("sim", "breakdown", "lsq")

    def __init__(self, config: SystemConfig, tracer=None, metrics=None,
                 attribution=None) -> None:
        if config.vector is None or config.vector.kind != "iv":
            raise SimulationError("IntegratedVectorMachine needs an 'iv' config")
        super().__init__(config, tracer=tracer, metrics=metrics,
                         attribution=attribution)
        self.vl = config.vector.hardware_vl

    def reset(self) -> None:
        super().reset()
        self._lsq_window = MshrPool(self.VECTOR_MLP, "iv-lsq",
                                    attribution=self.attr)

    def run(self, trace: Trace, compiled=None) -> SimResult:
        compiled = self._start(trace, compiled)
        tracer = self.tracer
        attr = self.attr
        lines_for = compiled.lines_for
        self._drain_node = -1
        vsu = {"busy": 0.0, "dep_stall": 0.0, "drain": 0.0}
        now = 0.0           # issue timeline of the shared pipes
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
            done = self._vector_instr(instr, now, lines_for(idx))
            if attr.enabled:
                # Issue-timeline split: the wait for source operands, then
                # the pipe occupancy of the instruction's uops.
                gap = self._dispatch_start - now
                if gap > 0:
                    attr.charge("vsu", "dep_stall", gap, node=idx)
                    vsu["dep_stall"] += gap
                occupancy = self._issue_end - self._dispatch_start
                if occupancy > 0:
                    attr.charge("vsu", "busy", occupancy, node=idx)
                    vsu["busy"] += occupancy
                attr.span(now, max(done, self._issue_end), node=idx)
                if done >= finish:
                    self._drain_node = idx
            if tracer.enabled and self._issue_end > now:
                tracer.span("VSU", instr.op, now, self._issue_end,
                            vl=instr.vl, done=done)
            now = max(now, self._issue_end)
            finish = max(finish, done)
        total = max(now, finish)
        if attr.enabled:
            # In-flight memory beyond the last issue slot: the drain tail.
            drain = total - now
            if drain > 0:
                attr.charge("vsu", "drain", drain, node=self._drain_node)
                vsu["drain"] += drain
        return self._result(trace, total, instructions, {"vsu": vsu},
                            timeline_units=("vsu", "core"))

    def _mshr_pools(self) -> tuple:
        return super()._mshr_pools() + (self._lsq_window,)

    def _publish_metrics(self, result: SimResult) -> None:
        lsq = self._lsq_window.stats()
        self.metrics.gauge("lsq.occupancy").set(lsq["occupancy_hwm"])
        self.metrics.counter("lsq.stall_cycles").inc(lsq["stall_cycles"])

    # -- one vector instruction ----------------------------------------------

    def _vector_instr(self, instr: VectorInstr, now: float,
                      lines) -> float:
        if instr.category.is_memory and instr.info.is_store:
            # The LSQ accepts stores before their data is ready; only the
            # index register gates address generation.
            start = max(now, self.reg_ready.get(instr.vidx, 0.0))
        else:
            start = max(now, self.deps_ready(instr))
        self._dispatch_start = start
        self._issue_end = start
        if instr.category is Category.CTRL:
            self._issue_end = start + 1.0
            return start + 1.0
        n_uops = max(1, math.ceil(instr.vl / self.vl))
        if instr.category.is_memory:
            done = self._memory_instr(instr, start, lines)
        else:
            startup, per_uop = self._timing_for(instr)
            self._issue_end = start + n_uops * per_uop
            done = start + startup + n_uops * per_uop
        self.set_ready(instr.dest, done)
        return done

    def _timing_for(self, instr: VectorInstr) -> tuple:
        if instr.category is Category.IMUL:
            if instr.info.macro == "div":
                return _PIPE_TIMING["idiv"]
            return _PIPE_TIMING["imul"]
        if instr.category is Category.XELEM:
            return _PIPE_TIMING["xelem"]
        return _PIPE_TIMING["ialu"]

    def _memory_instr(self, instr: VectorInstr, start: float,
                      lines) -> float:
        # Unit-stride ops move a 4-element (16B) chunk per μop; the LSQ
        # coalesces them, so one line request per distinct line.  Strided
        # and indexed ops become one scalar request per element.  Each
        # in-flight request holds one of the shared LSQ window's slots.
        # Indexed accesses also extract each address from a vector register
        # (an extra scalar μop per element).
        interval = 1.0 / self.LSQ_PORTS
        if instr.category is Category.MEM_INDEX:
            interval = 2.0 / self.LSQ_PORTS
        t, _, last_done, _ = self.mem.stream(
            start, lines, instr.mem.is_store, "l1", interval,
            window=self._lsq_window)
        n_uops = instr.mem.num_accesses if instr.per_element else max(
            1, math.ceil(instr.vl / self.vl))
        self._issue_end = start + n_uops * interval
        if self.tracer.enabled:
            self.tracer.span(
                "LSQ", f"{'st' if instr.mem.is_store else 'ld'}:{instr.op}",
                start, t, n_requests=len(lines), done=last_done)
        return last_done
