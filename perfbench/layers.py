"""What the ledger wraps, and the per-layer metrics it reports.

Metric names follow the repository's module names (``compiler.hoist_s``
is the self time of :func:`repro.compiler.passes.hoist_memory_lines`).
``_s`` metrics are self host seconds, counts are exact, and ``warm.*``
split the first warm re-run the way the plain names split the cold pass.
``perfbench/rationale.md`` says which end-to-end metric and workload each
one should move.
"""

from __future__ import annotations

import inspect
import os
import threading
from collections import namedtuple
from typing import Dict, List, Optional

from .ledger import Ledger, Span, Target, self_times
from .workloads import MEM_COUNTS

Metric = namedtuple("Metric", "name unit better kind sources phase")


def _metric(name, unit, better, kind, *sources, phase="cold"):
    return Metric(name, unit, better, kind, sources, phase)


def _seconds(name, *sources, phase="cold"):
    return _metric(name, "s", "lower", "self", *sources, phase=phase)


def _count(name, source, better="lower", unit="count", phase="cold"):
    return _metric(name, unit, better, "count", source, phase=phase)


#: ``kind`` says where a value comes from: ``self`` sums self seconds of
#: spans and aggregates, ``calls`` their call counts, ``worker`` the
#: durations of spans run in pool workers, ``count`` hook counts,
#: ``result`` counts read from simulated outputs, ``import`` the import
#: time of ``repro``.
METRICS = (
    _metric("setup.import_s", "s", "lower", "import"),
    _seconds("workloads.trace_build_s", "workloads.trace_build"),
    _metric("workloads.traces", "count", "lower", "calls",
            "workloads.trace_build"),
    _seconds("analysis.check_s", "analysis.check"),
    _count("analysis.findings", "analysis.findings"),
    _seconds("analysis.depgraph_s", "analysis.depgraph"),
    _seconds("compiler.columns_s", "compiler.columns"),
    _seconds("compiler.dce_s", "compiler.dce"),
    _seconds("compiler.hoist_s", "compiler.hoist"),
    _seconds("compiler.schedule_s", "compiler.schedule"),
    _count("compiler.blocks", "compiler.blocks"),
    _count("compiler.hoisted_requests", "compiler.hoisted_requests"),
    _seconds("cores.build_s", "cores.build"),
    _seconds("cores.scalar_s", "cores.scalar"),
    _seconds("cores.iv_s", "cores.iv"),
    _seconds("cores.dv_s", "cores.dv"),
    _seconds("core.eve_s", "core.eve"),
    _seconds("cores.ctrl_block_s", "cores.ctrl_block"),
    _seconds("cores.stream_s", "cores.stream"),
    _seconds("core.units_s", "core.units"),
    _seconds("uops.rom_cycles_s", "uops.rom_cycles"),
    _count("cores.events", "cores.events"),
    _seconds("mem.access_s", "mem.access"),
    _metric("mem.accesses", "count", "lower", "calls", "mem.access"),
    _seconds("mem.dram_s", "mem.dram"),
    *(_metric(name, "cycles" if name.endswith("cycles") else "count",
              "higher" if name.endswith("hits") else "lower", "result", name)
      for name in MEM_COUNTS),
    _seconds("runner.cell_s", "runner.cell", "parallel.cell"),
    _seconds("parallel.fanout_s", "parallel.fanout"),
    _seconds("parallel.pool_start_s", "parallel.pool_start"),
    _seconds("parallel.pool_stop_s", "parallel.pool_stop"),
    _seconds("parallel.poll_sleep_s", "parallel.poll_sleep"),
    _metric("parallel.worker_s", "s", "lower", "worker", "parallel.cell"),
    _seconds("parallel.cache_store_s", "parallel.cache_store"),
    _seconds("parallel.cache_load_s", "parallel.cache_load"),
    _count("parallel.cache_hits", "parallel.cache_hits", better="higher"),
    _count("parallel.cache_misses", "parallel.cache_misses"),
    _count("parallel.cache_bytes", "parallel.cache_bytes", unit="bytes"),
    _count("parallel.result_bytes", "parallel.result_bytes", unit="bytes"),
    _seconds("report.payload_s", "report.payload"),
    _seconds("report.scorecard_s", "report.scorecard"),
    _seconds("events.append_s", "events.append"),
    _count("events.written", "events.written"),
    _seconds("attribution.charge_s", "attribution.charge",
             "attribution.hooks"),
    _metric("attribution.charges", "count", "lower", "calls",
            "attribution.charge"),
    _seconds("attribution.conserve_s", "attribution.conserve"),
    _seconds("attribution.nodes_s", "attribution.nodes"),
    _seconds("critpath.report_s", "critpath.report"),
    _seconds("fuzz.generate_s", "fuzz.generate"),
    _seconds("fuzz.oracle_s", "fuzz.oracle"),
    _seconds("fuzz.dut_s", "fuzz.dut"),
    _seconds("uops.rom_program_s", "uops.rom_program"),
    _seconds("uops.engine_s", "uops.engine"),
    _seconds("sram.uop_s", "sram.uop"),
    _metric("sram.uops", "count", "lower", "calls", "sram.uop"),
    _seconds("core.functional_s", "core.functional"),
    _metric("fuzz.divergences", "count", "lower", "result",
            "fuzz.divergences"),
    _metric("scorecard.geomean_err_core", "x", "lower", "result",
            "scorecard.geomean_err_core"),
    _seconds("ledger.unattributed_s", "bench.cold"),
    _seconds("warm.fanout_s", "parallel.fanout", phase="warm"),
    _seconds("warm.pool_start_s", "parallel.pool_start", phase="warm"),
    _seconds("warm.pool_stop_s", "parallel.pool_stop", phase="warm"),
    _seconds("warm.poll_sleep_s", "parallel.poll_sleep", phase="warm"),
    _metric("warm.worker_s", "s", "lower", "worker", "parallel.cell",
            phase="warm"),
    _seconds("warm.cache_load_s", "parallel.cache_load", phase="warm"),
    _count("warm.result_bytes", "parallel.result_bytes", unit="bytes",
           phase="warm"),
    _seconds("warm.events_append_s", "events.append", phase="warm"),
    _seconds("warm.payload_s", "report.payload", phase="warm"),
    _seconds("warm.unattributed_s", "bench.warm", phase="warm"),
)

#: Reported by ``run.py --trace 1``: traced over untraced ``wall_s``.
TRACE_OVERHEAD = ("trace_overhead", "x", "lower")


# -- hooks: counts read from a wrapped call's arguments and result ----------

def _lengths(name):
    def hook(ledger, result, args, kwargs):
        ledger.count(name, len(result))
    return hook


def _hoisted(ledger, table, args, kwargs):
    # Vector events map to one request list, scalar blocks to one list
    # per access pattern.
    ledger.count("compiler.hoisted_requests", sum(
        sum(map(len, lines)) if lines and isinstance(lines[0], list)
        else len(lines) for lines in table.values()))


def _events(ledger, result, args, kwargs):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    ledger.count("cores.events", len(trace.events))


def _path(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs["path"]


def _cache_load(ledger, result, args, kwargs):
    path = _path(args, kwargs)
    status = result[1]
    if status == "hit":
        ledger.count("parallel.cache_bytes", os.path.getsize(path))
    if os.sep + "results" + os.sep in path:
        ledger.count("parallel.cache_hits" if status == "hit"
                     else "parallel.cache_misses")


def _cache_store(ledger, result, args, kwargs):
    ledger.count("parallel.cache_bytes", os.path.getsize(_path(args, kwargs)))


def _written(ledger, result, args, kwargs):
    ledger.count("events.written", result)


def _main_thread_only(make):
    """Trace main-thread calls only: a pool's handler threads must never
    touch the single-threaded ledger."""
    def wrap(fn):
        traced = make(fn)

        def wrapper(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper
    return wrap


def _methods(cls, names) -> List[str]:
    return [f"{cls.__module__}:{cls.__qualname__}.{name}" for name in names]


def targets(ledger: Ledger) -> List[Target]:
    """Every ``(target, make-wrapper)`` pair a traced process installs."""
    from repro.core.functional import EveFunctionalEngine
    from repro.sram.eve_sram import EveSram
    from repro.workloads import REGISTRY

    def span(name, hook=None):
        return lambda fn: ledger.span(name, fn, hook)

    def agg(name):
        return lambda fn: ledger.aggregate(name, fn)

    scalar_traces = [f"{type(wl).__module__}:{type(wl).__qualname__}"
                     ".scalar_trace" for wl in REGISTRY.values()
                     if "scalar_trace" in vars(type(wl))]
    uops = sorted(name for name, value in vars(EveSram).items()
                  if name.startswith("u_") and inspect.isfunction(value))
    intrinsics = ["__init__"] + sorted(
        name for name, value in vars(EveFunctionalEngine).items()
        if not name.startswith("_") and inspect.isfunction(value))
    table = [
        (span("workloads.trace_build"),
         ["repro.workloads.base:Workload.vector_trace", *scalar_traces]),
        (span("analysis.check", _lengths("analysis.findings")),
         ["repro.analysis.checkers:check_trace"]),
        (span("analysis.depgraph"), ["repro.analysis.depgraph:build_depgraph"]),
        (span("compiler.columns"),
         ["repro.analysis.columns:TraceColumns.__init__"]),
        (span("compiler.dce"), ["repro.compiler.passes:eliminate_dead_ops",
                                "repro.compiler.passes:verify_dce_findings"]),
        (span("compiler.hoist", _hoisted),
         ["repro.compiler.passes:hoist_memory_lines"]),
        (span("compiler.schedule", _lengths("compiler.blocks")),
         ["repro.compiler.blocks:schedule_blocks"]),
        (span("cores.build"), ["repro.experiments.systems:build_machine"]),
        (span("cores.scalar", _events), ["repro.cores.scalar:ScalarCore.run"]),
        (span("cores.iv", _events),
         ["repro.cores.iv:IntegratedVectorMachine.run"]),
        (span("cores.dv", _events),
         ["repro.cores.dv:DecoupledVectorMachine.run"]),
        (span("core.eve", _events), ["repro.core.engine:EveMachine.run"]),
        (agg("cores.ctrl_block"),
         ["repro.cores.vector_base:VectorMachineBase.run_scalar_block"]),
        (agg("cores.stream"),
         ["repro.cores.vector_base:VectorMachineBase.stream_lines"]),
        (agg("core.units"), ["repro.core.units:VmuModel.stream",
                             "repro.core.units:DtuPool.process",
                             "repro.core.units:VruModel.reduce",
                             "repro.core.units:VruModel.cross_element"]),
        (agg("uops.rom_cycles"), ["repro.uops.rom:MacroOpRom.cycles_for"]),
        (agg("uops.rom_program"), ["repro.uops.rom:MacroOpRom.program"]),
        (agg("uops.engine"), ["repro.uops.executor:MicroEngine.run"]),
        (agg("mem.access"),
         ["repro.compiler.memengine:FastMemorySystem.access",
          "repro.mem.hierarchy:MemorySystem.access"]),
        (agg("mem.dram"),
         ["repro.mem.dram:DramChannel.service",
          "repro.mem.dram:DramChannel.writeback",
          "repro.compiler.memengine:FastDramChannel.service",
          "repro.compiler.memengine:FastDramChannel.writeback"]),
        (span("runner.cell"), ["repro.experiments.runner:ExperimentRunner.run"]),
        (ledger.worker, ["repro.experiments.parallel:simulate_cell"]),
        (ledger.fan_out, ["repro.experiments.parallel:fan_out"]),
        (span("parallel.pool_start"), ["multiprocessing.pool:Pool.__init__"]),
        (span("parallel.pool_stop"), ["multiprocessing.pool:Pool.join"]),
        # The fan-out's result poll sleeps between checks.
        (_main_thread_only(span("parallel.poll_sleep")), ["time:sleep"]),
        (span("parallel.cache_load", _cache_load),
         ["repro.experiments.parallel:CellCache.load_entry"]),
        (span("parallel.cache_store", _cache_store),
         ["repro.experiments.parallel:CellCache.store"]),
        (span("report.payload"),
         ["repro.experiments.report:sweep_result_payload"]),
        (span("report.scorecard"), ["repro.obs.scorecard:build_scorecard"]),
        (span("events.append", _written), ["repro.obs.events:EventLog.append"]),
        (agg("attribution.charge"),
         ["repro.obs.attribution:AttributionCollector.charge"]),
        (agg("attribution.hooks"),
         ["repro.obs.attribution:AttributionCollector.span",
          "repro.obs.attribution:AttributionCollector.set_node"]),
        (span("attribution.conserve"),
         ["repro.obs.attribution:AttributionCollector.require_conserved"]),
        (span("attribution.nodes"), ["repro.obs.attribution:collect_nodes"]),
        (span("critpath.report"),
         ["repro.obs.critpath:build_bottleneck_report"]),
        (span("fuzz.generate"), ["repro.faults.fuzz:generate_case"]),
        (span("fuzz.oracle"), ["repro.faults.fuzz:run_oracle"]),
        (span("fuzz.dut"), ["repro.faults.fuzz:run_dut"]),
        (agg("sram.uop"), _methods(EveSram, uops)),
        (agg("core.functional"), _methods(EveFunctionalEngine, intrinsics)),
    ]
    return [(target, make) for make, names in table for target in names]


# -- evaluation -----------------------------------------------------------------

_EMPTY = {"aggs": {}, "counts": {}, "spans": []}


def _tables(delta: dict, owner_pid: int) -> Dict[str, Dict[str, float]]:
    spans = [Span.from_json(doc) for doc in delta["spans"]]
    own = self_times(spans)
    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    worker: Dict[str, float] = {}
    for span in spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.sid]
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.pid != owner_pid:
            worker[span.name] = (worker.get(span.name, 0.0)
                                 + span.t1 - span.t0)
    for name, (n, inclusive, child) in delta["aggs"].items():
        self_s[name] = self_s.get(name, 0.0) + max(0.0, inclusive - child)
        calls[name] = calls.get(name, 0) + n
    return {"self": self_s, "calls": calls, "worker": worker,
            "count": delta["counts"]}


def evaluate(cold: dict, warm: Optional[dict], results: Dict[str, float],
             import_s: float, owner_pid: int) -> Dict[str, float]:
    """Every per-layer metric of one traced process.

    ``cold`` / ``warm`` are the ledger deltas of the cold pass and of the
    first warm re-run; ``results`` holds counts read from simulated
    outputs (memory statistics, fuzz divergences, the scorecard).
    """
    tables = {"cold": _tables(cold, owner_pid),
              "warm": _tables(warm or _EMPTY, owner_pid)}
    values: Dict[str, float] = {}
    for metric in METRICS:
        if metric.kind == "import":
            values[metric.name] = import_s
        elif metric.kind == "result":
            values[metric.name] = results.get(metric.sources[0], 0)
        else:
            table = tables[metric.phase][metric.kind]
            values[metric.name] = sum(table.get(source, 0)
                                      for source in metric.sources)
    return values
