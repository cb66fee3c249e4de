"""The base every machine model shares (IO, O3, O3+IV, O3+DV, O3+EVE-n).

A machine replays a :class:`~repro.compiler.CompiledTrace`: the runner's
shared one, or one compiled on demand when a caller holds only a trace.
Each run starts on a cold memory hierarchy and ends through one
epilogue, :meth:`Machine._result`, which emits the ``Machine/execute``
span, builds the :class:`~repro.cores.result.SimResult`, publishes the
metrics and hands attribution the machine's units plus the shared
``core`` / ``dram`` / ``mshr`` totals.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..config import SystemConfig
from ..isa.trace import Trace
from ..mem.hierarchy import memory_system
from ..obs.attribution import NULL_ATTRIBUTION
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.tracer import NULL_TRACER, SpanTracer
from .result import SimResult


class Machine:
    """Hooks, a cold hierarchy per run, and the end-of-run epilogue."""

    #: Metric-name prefixes the machine claims in its registry, so another
    #: unit sharing the registry cannot silently collide with them.
    METRIC_PREFIXES: Tuple[str, ...] = ("sim",)

    def __init__(self, config: SystemConfig,
                 tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 attribution=None) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.attr = (attribution if attribution is not None
                     else NULL_ATTRIBUTION)
        for prefix in self.METRIC_PREFIXES:
            self.metrics.reserve(prefix, type(self).__name__)
        self.reset()

    def reset(self) -> None:
        """Return to a cold machine: a fresh memory hierarchy and zeroed
        control-processor totals.  Every ``run()`` starts here, so
        running one machine twice gives the same result twice."""
        self.mem = memory_system(self.config, self.tracer, self.metrics,
                                 self.attr)
        #: Control-processor attribution totals (the ``core`` unit).
        self._core_busy = 0.0
        self._core_stall = 0.0

    def _start(self, trace: Trace, compiled):
        """Reset, and return the compiled trace this run replays: the
        caller's, or ``trace`` compiled here when the caller has none."""
        self.reset()
        if compiled is not None:
            return compiled
        from ..compiler import compile_trace
        return compile_trace(trace)

    # -- the epilogue ----------------------------------------------------------

    def _mshr_pools(self) -> tuple:
        """The MSHR pools whose stalls attribution must conserve."""
        mem = self.mem
        return (mem.l1d_mshrs, mem.l2_mshrs, mem.llc_mshrs)

    def _publish_metrics(self, result: SimResult) -> None:
        """Machine-specific metrics, published between ``sim.*`` and the
        hierarchy's own."""

    def _result(self, trace: Trace, cycles: float, instructions: int,
                units: Dict[str, Dict[str, float]],
                timeline_units: Tuple[str, ...], **fields) -> SimResult:
        """End a run: ``units`` are the machine's own attribution units,
        ``timeline_units`` those whose buckets partition ``cycles``, and
        ``fields`` any extra :class:`SimResult` fields."""
        mem = self.mem
        if self.tracer.enabled:
            self.tracer.span("Machine", f"execute:{trace.name}", 0.0, cycles,
                             system=self.config.name,
                             instructions=instructions)
        result = SimResult(
            system=self.config.name, workload=trace.name, cycles=cycles,
            cycle_time_ns=self.config.cycle_time_ns,
            instructions=instructions, mem_stats=mem.level_stats(cycles),
            **fields)
        metrics = self.metrics
        if metrics.enabled:
            metrics.gauge("sim.cycles").set(cycles)
            metrics.counter("sim.instructions").inc(instructions)
            self._publish_metrics(result)
            mem.populate_metrics(cycles)
            result.metrics = metrics.snapshot()
        if self.attr.enabled:
            expected = dict(units)
            expected["core"] = {"busy": self._core_busy,
                                "mem_stall": self._core_stall}
            expected["dram"] = {"busy": mem.dram.busy_cycles}
            expected["mshr"] = {pool.name: pool.stall_cycles
                                for pool in self._mshr_pools()}
            self.attr.finish(cycles, expected, timeline_units)
            result.unit_cycles = {unit: dict(buckets)
                                  for unit, buckets in expected.items()}
        return result
