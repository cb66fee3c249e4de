"""The EVE machine model (Section V, Figure 3a).

Timing follows the paper's function/timing split: vector values were
already computed functionally when the trace was built; here every
instruction is timed from its real micro-program (via the ROM) and from
the VMU / DTU / VRU unit models, against the live memory hierarchy.

The engine is in-order with a single execution pipe (Table III), but the
VSU is released as soon as a memory macro-operation is handed to the VMU,
so outstanding loads and stores overlap with compute — the overlap the
paper credits for hiding most transpose traffic.  Every idle VSU cycle is
attributed to one Figure 7 bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import SystemConfig
from ..errors import SimulationError
from ..isa.instructions import ScalarBlock, VectorInstr
from ..isa.opcodes import Category
from ..isa.trace import Trace
from ..mem.reconfig import spawn_cost
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import SpanTracer
from ..sram.layout import RegisterLayout
from ..uops.rom import MacroOpRom
from ..cores.result import SimResult, StallBreakdown
from ..cores.vector_base import VectorMachineBase
from .units import DtuPool, VmuModel, VruModel


@dataclass
class _RegInfo:
    """Scoreboard entry: when a register is ready and who produced it."""

    ready: float = 0.0
    kind: str = "compute"      # 'compute' | 'ld' | 'vru'
    dt_limited: bool = False   # for loads: transpose was the bottleneck
    node: int = -1             # trace-event index of the producer


class EveMachine(VectorMachineBase):
    """O3+EVE-n: the ephemeral vector engine carved out of the L2."""

    #: Core commit -> EVE receive latency (the Section V-A queue).
    COMMIT_LATENCY = 4.0
    #: Back-to-back vector commits per cycle out of the core.
    COMMIT_INTERVAL = 0.5
    #: VSU cycles to decode + hand a macro-op to the VMU / VRU.
    VSU_DISPATCH = 2.0

    METRIC_PREFIXES = ("sim", "breakdown", "eve")

    def __init__(self, config: SystemConfig,
                 tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 attribution=None) -> None:
        if config.vector is None or config.vector.kind != "eve":
            raise SimulationError("EveMachine needs an 'eve' config")
        # Set before the base constructor: its reset() sizes the units.
        sram = config.eve_sram
        self.factor = config.vector.factor
        self.layout = RegisterLayout(
            rows=sram.rows, cols=sram.cols, element_bits=32,
            factor=self.factor, num_vregs=sram.num_vregs)
        self.rom = MacroOpRom(self.factor, strict=True)
        self.segments = 32 // self.factor
        self.num_dtus = sram.num_dtus
        self.vru_ports = sram.port_bits // self.factor
        super().__init__(config, tracer=tracer, metrics=metrics,
                         attribution=attribution)

    def reset(self) -> None:
        """A cold machine with idle VMU, DTU pool and VRU."""
        super().reset()
        self.vmu = VmuModel(self.mem)
        self.dtu = DtuPool(self.num_dtus, self.segments,
                           bit_parallel=(self.factor == 32),
                           tracer=self.tracer, attribution=self.attr)
        self.vru = VruModel(self.segments, self.vru_ports,
                            tracer=self.tracer, attribution=self.attr)
        self._regs: Dict[int, _RegInfo] = {}

    # -- helpers ------------------------------------------------------------

    def _active_arrays(self, vl: int) -> int:
        return max(1, math.ceil(vl / self.layout.elements_per_array))

    def _attribute(self, breakdown: StallBreakdown, t_before: float,
                   causes: Dict[str, float], node: int = -1) -> float:
        """Charge the idle gap before an instruction to its largest cause.

        Returns the start time (the max cause, at least ``t_before``).
        """
        start = max(t_before, max(causes.values(), default=t_before))
        gap = start - t_before
        if gap > 0:
            bucket = max(causes, key=lambda b: causes[b])
            breakdown.add(bucket, gap)
            if self.attr.enabled:
                self.attr.charge("vsu", bucket, gap, node=node)
        return start

    def _dep_causes(self, instr: VectorInstr) -> Dict[str, float]:
        """Map each source register's wait to its Figure 7 bucket."""
        causes: Dict[str, float] = {}
        for reg in instr.sources:
            info = self._regs.get(reg)
            if info is None:
                continue
            if info.kind == "ld":
                bucket = "ld_dt_stall" if info.dt_limited else "ld_mem_stall"
            else:
                bucket = "dep_stall"
            causes[bucket] = max(causes.get(bucket, 0.0), info.ready)
        return causes

    # -- main loop -----------------------------------------------------------------

    def run(self, trace: Trace, compiled=None) -> SimResult:
        compiled = self._start(trace, compiled)
        tracer = self.tracer
        attr = self.attr
        self._drain_node = -1      # producer of the latest outstanding store
        breakdown = StallBreakdown()
        uprog_hist = self.metrics.histogram("eve.uprog.cycles")
        # Fix the track set up front: an idle unit (e.g. the VRU on a
        # workload with no reductions) still gets its named track.
        tracer.declare("Machine", "VSU", "VMU", "DTU", "VRU", "DRAM")

        # Ephemeral spawn: walk the carved-out ways (free on a cold L2).
        setup = spawn_cost(self.mem.l2)
        if tracer.enabled:
            if setup.is_free:
                tracer.instant("Reconfig", "spawn", 0.0,
                               lines_walked=setup.lines_walked)
            else:
                tracer.span("Reconfig", "spawn", 0.0, float(setup.cycles),
                            lines_walked=setup.lines_walked,
                            dirty_lines=setup.dirty_lines)
        t = float(setup.cycles)        # VSU timeline
        core_time = 0.0                # control-processor timeline
        last_commit = 0.0
        store_drain = 0.0              # latest outstanding store completion
        busy = 0.0
        instructions = 0
        finish = t
        if attr.enabled:
            attr.meta["spawn_cycles"] = float(setup.cycles)

        lines_for = compiled.lines_for
        for idx, event in compiled.iter_events():
            if attr.enabled:
                attr.set_node(idx)
            if isinstance(event, ScalarBlock):
                core_time = self.run_scalar_block(core_time, event,
                                                  lines_for(idx))
                continue
            instr: VectorInstr = event
            instructions += 1
            arrival = max(core_time + self.COMMIT_LATENCY,
                          last_commit + self.COMMIT_INTERVAL)
            last_commit = arrival

            if instr.op == "vsetvl":
                continue
            if instr.op == "vmfence":
                # Drain pending vector stores before scalar memory proceeds.
                core_time = max(core_time, store_drain)
                if tracer.enabled:
                    tracer.instant("VSU", "vmfence", core_time)
                continue

            causes = {"empty_stall": arrival}
            causes.update(self._dep_causes(instr))
            category = instr.category

            if category.is_memory:
                # Memory macro-ops are handed to the VMU, which runs
                # decoupled from the VSU — outstanding fetches overlap with
                # compute (Section VII-B); only the brief dispatch
                # handshake occupies the VSU.
                dispatch = max(t, arrival)
                if dispatch > t:
                    breakdown.add("empty_stall", dispatch - t)
                    if attr.enabled:
                        attr.charge("vsu", "empty_stall", dispatch - t,
                                    node=idx)
                t = dispatch + self.VSU_DISPATCH
                vmu_ready = max(t, self.vmu.free_at,
                                max(causes.values(), default=0.0))
                if instr.info.is_load:
                    done = self._load(vmu_ready, instr, lines_for(idx))
                    self._regs[instr.vd] = _RegInfo(
                        ready=done, kind="ld",
                        dt_limited=self._last_dt_limited, node=idx)
                else:
                    done = self._store(vmu_ready, instr, lines_for(idx))
                    if done >= store_drain:
                        self._drain_node = idx
                    store_drain = max(store_drain, done)
                busy += self.VSU_DISPATCH
                if attr.enabled:
                    attr.charge("vsu", "busy", self.VSU_DISPATCH, node=idx)
                    attr.span(dispatch, done, node=idx)
                finish = max(finish, done)
                if tracer.enabled:
                    tracer.span("VSU", f"dispatch:{instr.op}", dispatch, t,
                                vl=instr.vl, done=done)
            elif category is Category.XELEM or instr.info.is_reduction:
                causes["vru_stall"] = max(causes.get("vru_stall", 0.0),
                                          self.vru.free_at)
                start = self._attribute(breakdown, t, causes, node=idx)
                t, done = self._vru_instr(start, instr)
                busy += t - start
                if attr.enabled:
                    attr.charge("vsu", "busy", t - start, node=idx)
                    attr.span(start, done, node=idx)
                if tracer.enabled:
                    tracer.span("VSU", instr.op, start, t, vl=instr.vl,
                                done=done)
                if instr.dest >= 0:
                    self._regs[instr.dest] = _RegInfo(ready=done, kind="vru",
                                                      node=idx)
                if instr.info.writes_scalar or instr.info.is_reduction:
                    # Scalar results (vmv.x.s, reduction sums) stall the
                    # core's commit for the round trip (Section V-A/V-D).
                    core_time = max(core_time, done + self.COMMIT_LATENCY)
                finish = max(finish, done)
            else:
                start = self._attribute(breakdown, t, causes, node=idx)
                cycles = float(self.rom.cycles_for(instr))
                t = start + cycles
                busy += cycles
                if attr.enabled:
                    attr.charge("vsu", "busy", cycles, node=idx)
                    attr.span(start, t, node=idx)
                uprog_hist.observe(cycles)
                if tracer.enabled:
                    # The macro-op's micro-program occupies the single
                    # execution pipe for its full ROM cycle count.
                    tracer.span("VSU", f"uprog:{instr.op}", start, t,
                                vl=instr.vl, rom_cycles=cycles)
                if instr.dest >= 0:
                    self._regs[instr.dest] = _RegInfo(ready=t, kind="compute",
                                                      node=idx)
                finish = max(finish, t)

        total = max(t, finish, store_drain, core_time)
        breakdown.busy = busy
        # The tail beyond the last VSU activity is memory drain.
        assigned = breakdown.total()
        residual = total - assigned
        if residual > 0:
            if store_drain >= total - 1e-9:
                bucket, culprit = "st_mem_stall", self._drain_node
            else:
                late_ld = next((i for i in self._regs.values()
                                if i.kind == "ld"
                                and i.ready >= total - 1e-9), None)
                if late_ld is not None:
                    bucket, culprit = "ld_mem_stall", late_ld.node
                else:
                    bucket, culprit = "empty_stall", -1
            breakdown.add(bucket, residual)
            if attr.enabled:
                attr.charge("vsu", bucket, residual, node=culprit)

        # Hand attribution the machine-reported totals it must conserve
        # against.  The VSU breakdown is the strict target: it is
        # accumulated independently of the charge ledger and forced to
        # equal the achieved cycle count above.
        units = {
            "vsu": breakdown.as_dict(),
            "vmu": {"busy": self.vmu.busy_cycles,
                    "mshr_stall": self.vmu.stall_cycles},
            "dtu": {"busy": self.dtu.busy_cycles},
            "vru": {"busy": self.vru.busy_cycles},
        }
        return self._result(
            trace, total, instructions, units, timeline_units=("vsu",),
            breakdown=breakdown,
            vmu_llc_stall_frac=(self.mem.vector_mshr_stall / total
                                if total > 0 else 0.0))

    def _publish_metrics(self, result: SimResult) -> None:
        """Publish aggregate unit / breakdown stats into the registry."""
        metrics = self.metrics
        metrics.counter("eve.vsu.busy_cycles").inc(result.breakdown.busy)
        metrics.counter("eve.vmu.busy_cycles").inc(self.vmu.busy_cycles)
        metrics.counter("eve.vmu.stall_cycles").inc(self.vmu.stall_cycles)
        metrics.counter("eve.vmu.streams").inc(self.vmu.streams)
        metrics.counter("eve.dtu.busy_cycles").inc(self.dtu.busy_cycles)
        metrics.counter("eve.dtu.lines").inc(self.dtu.lines_processed)
        metrics.counter("eve.vru.busy_cycles").inc(self.vru.busy_cycles)
        metrics.counter("eve.vru.operations").inc(self.vru.operations)
        for bucket, value in result.breakdown.as_dict().items():
            metrics.counter(f"breakdown.{bucket}").inc(value)

    # -- per-class timing ----------------------------------------------------------

    def _load(self, start: float, instr: VectorInstr, lines) -> float:
        """VMU fetch -> DTU transpose -> rows written."""
        stream = self.vmu.stream(start, instr.mem, lines)
        dt_done = self.dtu.process(stream.first_done, stream.n_lines)
        done = max(stream.last_done, dt_done)
        self._last_dt_limited = dt_done > stream.last_done
        return done

    def _store(self, start: float, instr: VectorInstr, lines) -> float:
        """Rows read -> DTU detranspose -> VMU write stream."""
        dt_done = self.dtu.process(start, len(lines))
        # The VMU starts writing once the first line is detransposed.
        first_data = start + self.dtu.cycles_per_line
        stream = self.vmu.stream(max(first_data, start), instr.mem, lines)
        return max(stream.last_done, dt_done)

    def _vru_instr(self, start: float, instr: VectorInstr) -> Tuple[float, float]:
        arrays = self._active_arrays(instr.vl)
        if instr.info.is_reduction:
            done = self.vru.reduce(start, arrays)
            vsu_busy = arrays * self.segments
        elif instr.op in ("vmv.x.s", "vmv.s.x"):
            done = start + self.segments + self.COMMIT_LATENCY
            vsu_busy = self.segments
        else:  # vrgather / slides
            done = self.vru.cross_element(start, arrays)
            vsu_busy = 2 * arrays * self.segments
        return start + vsu_busy, done
