"""Simulation driver with trace caching.

Traces depend only on (workload, vlmax), so EVE-1/2/4 — all with a 2048
hardware vector length — share one trace, and the IV/DV machines share the
VL=64 trace.  Scalar systems run the workload's scalar trace.  A vector
trace in which no ``vsetvl`` grant was clamped (its largest requested AVL,
:meth:`~repro.isa.trace.Trace.max_avl`, is at most its vlmax) is also the
trace of every vlmax at or above that AVL, since kernels see vlmax only
through ``setvl``; the runner then builds and compiles it once and hands
each such vlmax its own :class:`~repro.isa.trace.Trace` stamped with that
vlmax.  This runner is the only code that picks the trace and
:class:`~repro.compiler.CompiledTrace` a cell replays: each sweep worker
(:func:`~repro.experiments.parallel.simulate_cell`) runs its group of
same-vlmax cells through :meth:`ExperimentRunner.run` on a fresh
runner, so a ``--jobs`` sweep builds and compiles once per (workload,
vlmax) and shares nothing across vlmaxes.

The runner also carries the observability plumbing: a
:class:`~repro.obs.SelfProfiler` attributes the simulator's own host
wall-clock time to ``trace_build`` / ``compile`` / ``sim:<system>``
phases (plus ``check`` for a shared trace re-checked in strict mode),
and :meth:`run` accepts a tracer, metrics registry and/or
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
from ..obs.events import NULL_TELEMETRY, TelemetryMonitor
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
        require_strict_clean(trace)
    return trace


def require_strict_clean(trace: Trace) -> None:
    """The strict-mode gate: ``trace`` must pass the static hazard
    checkers at the vlmax it is stamped with."""
    require_clean(trace, context=f"strict check, vlmax={trace.vlmax}")


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

    Traces depend only on (workload, vlmax).  Each built trace is
    compiled once and every system at its vlmax replays that
    :class:`~repro.compiler.CompiledTrace`; a vector trace with no
    clamped grant also serves every later request for its workload at a
    vlmax of at least its :meth:`~repro.isa.trace.Trace.max_avl`, as the
    same events, buffers and compiled form under a :class:`Trace`
    stamped with the requested vlmax (re-checked there in strict mode).
    A run given a tracer, metrics registry or attribution collector
    replays it too: the machine then times on the hooked
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
        #: workload -> (max AVL, trace-cache key) of the vector trace it
        #: built with no grant clamped.  There is at most one: every vlmax
        #: at or above that AVL yields the same trace.
        self._unclamped: Dict[str, Tuple[int, Tuple[str, int]]] = {}
        #: Compiled traces, keyed by :meth:`_program_key`.
        self._compiled: Dict[Tuple[str, int], object] = {}
        self._results: Dict[Tuple[str, str], SimResult] = {}

    def _program_key(self, workload_name: str, vlmax: int) -> Tuple[str, int]:
        """The trace-cache key whose built trace serves ``vlmax``: the
        workload's unclamped vector trace when ``vlmax`` is at least its
        max AVL, otherwise the request's own key."""
        max_avl, built = self._unclamped.get(workload_name, (0, None))
        if built is not None and vlmax > 0 and vlmax >= max_avl:
            return built
        return (workload_name, vlmax)

    def _trace(self, workload_name: str, vlmax: int) -> Trace:
        key = (workload_name, vlmax)
        if key in self._traces:
            return self._traces[key]
        program = self._program_key(workload_name, vlmax)
        if program != key:
            trace = self._traces[program].with_vlmax(vlmax)
            if self.strict_check:
                with self.profiler.phase("check"):
                    require_strict_clean(trace)
        else:
            with self.profiler.phase("trace_build"):
                trace = build_trace(
                    workload_name, vlmax,
                    self.params_override.get(workload_name),
                    verify=self.verify, seed=self.seed,
                    strict=self.strict_check)
                max_avl = trace.max_avl()
            if vlmax > 0 and max_avl <= vlmax:
                self._unclamped[workload_name] = (max_avl, key)
        self._traces[key] = trace
        return trace

    def _compiled_for(self, workload_name: str, vlmax: int):
        """The :class:`~repro.compiler.CompiledTrace` for one trace-cache
        cell, built once and shared by every vlmax its trace serves."""
        self._trace(workload_name, vlmax)
        program = self._program_key(workload_name, vlmax)
        if program not in self._compiled:
            from ..compiler import CompilerConfig, compile_trace
            config = CompilerConfig(strict=self.strict_check)
            with self.profiler.phase("compile"):
                self._compiled[program] = compile_trace(
                    self._traces[program], config)
        return self._compiled[program]

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

        The serial implementation runs the cells in order through
        :func:`~repro.experiments.parallel.fan_out`'s in-process loop,
        so a failing cell is reported ``failed``, the other cells still
        run, and the first failure is re-raised after them; a cell
        already in memory is a ``cache_hit``.  The process-pool subclass
        (:class:`~repro.experiments.parallel.ParallelRunner`) overrides
        this with a worker fan-out.  Returns summary stats either way.
        """
        from .parallel import fan_out  # parallel imports this module
        start = time.perf_counter()
        ordered = canonical_pairs(pairs)
        units = [f"{s}/{w}" for s, w in ordered]
        self.telemetry.begin(units)

        def cell(key: Tuple[str, str]) -> Tuple[bool, dict]:
            cached = key in self._results
            return cached, {"system": key[0], "workload": key[1],
                            "cycles": self.run(*key).cycles}

        outs = fan_out(cell, ordered, 1, monitor=TelemetryMonitor(
            self.telemetry, units,
            describe=lambda out: [(out[0], (), out[1], None, None)]))
        cached = sum(warm for warm, _detail in outs)
        return {"cells": len(ordered), "simulated": len(ordered) - cached,
                "cached": cached, "jobs": 1,
                "seconds": time.perf_counter() - start}

    def speedup(self, system_name: str, workload_name: str,
                baseline: str = "IO") -> float:
        """Wall-clock speedup of ``system_name`` over ``baseline``."""
        return self.run(system_name, workload_name).speedup_over(
            self.run(baseline, workload_name))
