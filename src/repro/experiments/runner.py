"""Simulation driver with trace caching.

Traces depend only on (workload, vlmax), so EVE-1/2/4 — all with a 2048
hardware vector length — share one trace, and the IV/DV machines share the
VL=64 trace.  Scalar systems run the workload's scalar trace.

The runner also carries the observability plumbing: a
:class:`~repro.obs.SelfProfiler` attributes the simulator's own host
wall-clock time to ``trace_build`` / ``compile`` / ``sim:<system>``
phases, and :meth:`run` accepts a tracer, metrics registry and/or
attribution collector to instrument a single simulation.  Every run,
instrumented or not, replays the same cached
:class:`~repro.compiler.CompiledTrace`; instrumented runs bypass the
result cache so the instruments observe a real execution.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Tuple

from ..analysis import require_clean
from ..config import make_system
from ..cores.result import SimResult
from ..isa.trace import Trace
from ..obs.events import NULL_TELEMETRY
from ..obs.metrics import MetricsRegistry
from ..obs.selfprof import SelfProfiler
from ..obs.tracer import SpanTracer
from ..workloads import DEFAULT_SEED, canonical_workload, get_workload
from .systems import build_machine, canonical_system, trace_vlmax

#: Environment switch for strict-mode static checking; CI sets it so every
#: freshly built vector trace must pass ``repro check`` before simulating.
STRICT_CHECK_ENV = "EVE_STRICT_CHECK"


def strict_check_enabled() -> bool:
    """Whether the environment requests strict-mode trace checking."""
    return os.environ.get(STRICT_CHECK_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def build_trace(workload_name: str, vlmax: int,
                params: Optional[dict] = None, verify: bool = True,
                seed: int = DEFAULT_SEED, strict: bool = False) -> Trace:
    """The trace a machine granting ``vlmax`` simulates: the workload's
    scalar trace at vlmax 0, otherwise its vector trace, which ``strict``
    requires to pass the static hazard checkers."""
    workload = get_workload(workload_name)
    if vlmax == 0:
        return workload.scalar_trace(params)
    trace = workload.vector_trace(vlmax, params, verify=verify, seed=seed)
    if strict:
        require_clean(trace, context=f"strict check, vlmax={vlmax}")
    return trace


def canonical_pairs(pairs) -> list:
    """Canonicalize (system, workload) pairs and drop duplicates,
    preserving first-seen order — the shared front half of every
    prefetch implementation, so all of them agree on what "the same
    cell" means."""
    ordered = []
    seen = set()
    for system, workload in pairs:
        key = (canonical_system(system), canonical_workload(workload))
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    return ordered


class ExperimentRunner:
    """Runs (system, workload) pairs, caching traces, compiled traces and
    results.

    Each trace is compiled once and every system at its vlmax replays
    that :class:`~repro.compiler.CompiledTrace`.  A run given a tracer,
    metrics registry or attribution collector replays it too: the
    machine then times on the hooked
    :class:`~repro.mem.hierarchy.MemorySystem`, which takes the same
    cycles as the plain model.
    """

    def __init__(self, params_override: Optional[Dict[str, dict]] = None,
                 verify: bool = True,
                 profiler: Optional[SelfProfiler] = None,
                 seed: int = DEFAULT_SEED,
                 strict_check: Optional[bool] = None,
                 telemetry=NULL_TELEMETRY) -> None:
        #: workload name -> params override (benchmarks use smaller inputs).
        self.params_override = params_override or {}
        self.verify = verify
        self.seed = seed
        self.profiler = profiler or SelfProfiler()
        #: Campaign telemetry hub (:data:`~repro.obs.events.NULL_TELEMETRY`
        #: by default — the zero-cost null-hook pattern; pass a
        #: :class:`~repro.obs.events.CampaignTelemetry` to stream
        #: per-cell lifecycle events from :meth:`prefetch`).
        self.telemetry = telemetry
        #: Run the static hazard checkers on every freshly built vector
        #: trace and refuse to simulate a failing one.  ``None`` defers to
        #: the ``EVE_STRICT_CHECK`` environment variable (off by default
        #: in sweeps, on in CI).
        self.strict_check = (strict_check_enabled() if strict_check is None
                             else strict_check)
        self._traces: Dict[Tuple[str, int], Trace] = {}
        self._compiled: Dict[Tuple[str, int], object] = {}
        self._results: Dict[Tuple[str, str], SimResult] = {}

    def _trace(self, workload_name: str, vlmax: int) -> Trace:
        key = (workload_name, vlmax)
        if key not in self._traces:
            with self.profiler.phase("trace_build"):
                self._traces[key] = build_trace(
                    workload_name, vlmax,
                    self.params_override.get(workload_name),
                    verify=self.verify, seed=self.seed,
                    strict=self.strict_check)
        return self._traces[key]

    def _compiled_for(self, workload_name: str, vlmax: int):
        """The :class:`~repro.compiler.CompiledTrace` for one trace-cache
        cell, built once and shared by every system at that vlmax."""
        key = (workload_name, vlmax)
        if key not in self._compiled:
            from ..compiler import CompilerConfig, compile_trace
            trace = self._trace(workload_name, vlmax)
            config = CompilerConfig(strict=self.strict_check)
            with self.profiler.phase("compile"):
                self._compiled[key] = compile_trace(trace, config)
        return self._compiled[key]

    def trace_for(self, system_name: str, workload_name: str) -> Trace:
        """The trace ``system_name`` would simulate for ``workload_name``
        (built and cached on first request; scalar systems get the
        workload's scalar trace)."""
        system_name = canonical_system(system_name)
        workload_name = canonical_workload(workload_name)
        return self._trace(workload_name,
                           trace_vlmax(make_system(system_name)))

    def run(self, system_name: str, workload_name: str,
            tracer: Optional[SpanTracer] = None,
            metrics: Optional[MetricsRegistry] = None,
            attribution=None) -> SimResult:
        # Canonicalize before the cache lookup so programmatic callers
        # spelling "io" and "IO" share one result/trace entry instead of
        # double-simulating (or crashing in make_system).
        system_name = canonical_system(system_name)
        workload_name = canonical_workload(workload_name)
        instrumented = (tracer is not None or metrics is not None
                        or attribution is not None)
        key = (system_name, workload_name)
        if not instrumented and key in self._results:
            return self._results[key]
        machine = build_machine(system_name, tracer=tracer, metrics=metrics,
                                attribution=attribution)
        vlmax = trace_vlmax(machine.config)
        trace = self._trace(workload_name, vlmax)
        compiled = self._compiled_for(workload_name, vlmax)
        with self.profiler.phase(f"sim:{system_name}"):
            result = machine.run(trace, compiled=compiled)
        if not instrumented:
            self._results[key] = result
        return result

    def cell_metrics(self, system_name: str, workload_name: str):
        """Pre-collected ``(flat, snapshot)`` metrics for one cell, or
        ``None``.  The serial runner never pre-collects; the parallel
        sweep executor overrides this with worker-captured registries."""
        return None

    def prefetch(self, pairs) -> Dict[str, object]:
        """Warm the result cache for every (system, workload) cell.

        The serial implementation just runs the cells in order; the
        process-pool subclass
        (:class:`~repro.experiments.parallel.ParallelRunner`) overrides
        this with a worker fan-out.  Returns summary stats either way.
        """
        start = time.perf_counter()
        ordered = canonical_pairs(pairs)
        if self.telemetry.enabled:
            self.telemetry.begin([f"{s}/{w}" for s, w in ordered])
        simulated = cached = 0
        for system, workload in ordered:
            was_warm = (system, workload) in self._results
            cached += was_warm
            simulated += not was_warm
            if not self.telemetry.enabled:
                self.run(system, workload)
                continue
            unit = f"{system}/{workload}"
            t0 = time.monotonic()
            try:
                result = self.run(system, workload)
            except Exception as exc:
                self.telemetry.unit_finished(
                    unit, ok=False, t_start=t0, t_end=time.monotonic(),
                    detail={"error": f"{type(exc).__name__}: {exc}"})
                raise
            self.telemetry.unit_finished(
                unit, ok=True, cached=was_warm, t_start=t0,
                t_end=time.monotonic(),
                detail={"system": system, "workload": workload,
                        "cycles": result.cycles})
        return {"cells": len(ordered), "simulated": simulated,
                "cached": cached, "jobs": 1,
                "seconds": time.perf_counter() - start}

    def speedup(self, system_name: str, workload_name: str,
                baseline: str = "IO") -> float:
        """Wall-clock speedup of ``system_name`` over ``baseline``."""
        return self.run(system_name, workload_name).speedup_over(
            self.run(baseline, workload_name))
