"""Simulation driver: trace caching, the one cell loop, the one prefetch.

Traces depend only on (workload, vlmax), so EVE-1/2/4 — all with a 2048
hardware vector length — share one trace, and the IV/DV machines share the
VL=64 trace.  Scalar systems run the workload's scalar trace.  A vector
trace in which no ``vsetvl`` grant was clamped (its largest requested AVL,
:meth:`~repro.isa.trace.Trace.max_avl`, is at most its vlmax) is also the
trace of every vlmax at or above that AVL, since kernels see vlmax only
through ``setvl``; the runner then builds and compiles it once and hands
each such vlmax its own :class:`~repro.isa.trace.Trace` stamped with that
vlmax.  This runner is the only code that picks the trace and
:class:`~repro.compiler.CompiledTrace` a cell replays.

:meth:`ExperimentRunner.prefetch` is the only prefetch.  It groups the
missing cells by (workload, vlmax) and hands the groups to
:func:`~repro.experiments.parallel.fan_out`: in-process on the runner
itself at ``jobs=1``, so a serial run also shares traces across vlmaxes,
and otherwise through :func:`~repro.experiments.parallel.simulate_cell`,
which runs a group on a fresh runner in a pool worker and so shares
nothing across vlmaxes.  Both paths run every cell through one loop,
:meth:`ExperimentRunner.run_group` (result-cache load, :meth:`run`,
store), in which each cell succeeds or fails on its own.

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
from typing import Dict, List, Optional, Tuple

from ..analysis import require_clean
from ..config import make_system
from ..cores.result import SimResult
from ..isa.trace import Trace
from ..obs.events import NULL_TELEMETRY, TelemetryMonitor
from ..obs.metrics import MetricsRegistry
from ..obs.selfprof import SelfProfiler
from ..obs.tracer import SpanTracer
from ..workloads import DEFAULT_SEED, canonical_workload, get_workload
from . import parallel
from .systems import build_machine, canonical_system, trace_vlmax

#: Environment switch for strict-mode static checking; CI sets it so every
#: freshly built vector trace must pass ``repro check`` before simulating.
STRICT_CHECK_ENV = "EVE_STRICT_CHECK"


def strict_check_enabled() -> bool:
    """Whether the environment requests strict-mode trace checking."""
    return os.environ.get(STRICT_CHECK_ENV, "").strip().lower() in (
        "1", "true", "yes", "on")


def build_trace(workload_name: str, vlmax: int,
                params: Optional[dict] = None,
                seed: int = DEFAULT_SEED, strict: bool = False) -> Trace:
    """The trace a machine granting ``vlmax`` simulates: the workload's
    scalar trace at vlmax 0, otherwise its vector trace, which ``strict``
    requires to pass the static hazard checkers."""
    workload = get_workload(workload_name)
    if vlmax == 0:
        return workload.scalar_trace(params)
    trace = workload.vector_trace(vlmax, params, seed=seed)
    if strict:
        require_strict_clean(trace)
    return trace


def require_strict_clean(trace: Trace) -> None:
    """The strict-mode gate: ``trace`` must pass the static hazard
    checkers at the vlmax it is stamped with."""
    require_clean(trace, context=f"strict check, vlmax={trace.vlmax}")


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

    :meth:`prefetch` runs its groups of cells on ``jobs`` pool workers
    (0 = one per CPU; 1, the default, runs them in-process), reading and
    writing the on-disk result cache under ``cache_root`` when one is
    given, and with ``collect_metrics`` it captures each cell's metrics
    registry for :meth:`cell_metrics`.
    """

    def __init__(self, params_override: Optional[Dict[str, dict]] = None,
                 profiler: Optional[SelfProfiler] = None,
                 seed: int = DEFAULT_SEED,
                 strict_check: Optional[bool] = None,
                 telemetry=NULL_TELEMETRY, jobs: int = 1,
                 cache_root: Optional[str] = None,
                 collect_metrics: bool = False) -> None:
        #: workload name -> params override (benchmarks use smaller inputs).
        self.params_override = params_override or {}
        self.jobs = max(1, jobs or os.cpu_count() or 1)
        self.cache_root = cache_root
        self.collect_metrics = collect_metrics
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
        #: (system, workload) -> the ``(flat, snapshot)`` metrics a
        #: ``collect_metrics`` prefetch captured.
        self._metrics: Dict[Tuple[str, str], tuple] = {}

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
                    seed=self.seed, strict=self.strict_check)
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
        """The ``(flat, snapshot)`` metrics a ``collect_metrics``
        :meth:`prefetch` captured for one cell, or ``None``."""
        return self._metrics.get((canonical_system(system_name),
                                  canonical_workload(workload_name)))

    def run_group(self, workload_name: str, systems) -> List[dict]:
        """The one cell loop: run ``systems`` on ``workload_name`` in turn.

        :meth:`prefetch` calls it in-process and
        :func:`~repro.experiments.parallel.simulate_cell` on a worker's
        fresh runner.  Each cell loads from the result cache when
        ``cache_root`` is set, and on a miss runs through :meth:`run`
        (metered on the hooked memory model with ``collect_metrics``,
        which takes the same cycles) and is stored.  A cell that raises
        does not stop the ones after it.  Returns one picklable payload
        per system, in order: its :class:`~repro.cores.result.SimResult`
        and metrics-registry views (``None`` when failed or unmetered),
        whether it came from the cache, the cache status (``hit`` /
        ``miss`` / ``corrupt``, or ``None`` without a cache) and entry
        path, the exception it raised (or ``None``), and the raw
        ``t0``/``t1`` monotonic readings around it.
        """
        workload_name = canonical_workload(workload_name)
        cache = parallel.CellCache(self.cache_root) if self.cache_root else None
        if cache is not None:
            from ..compiler import compiler_descriptor
            params_fp = parallel.params_fingerprint(
                workload_name, self.params_override, seed=self.seed,
                compiler=compiler_descriptor())
            config_fp = parallel.sweep_config_fingerprint()
        cells = []
        for system in map(canonical_system, systems):
            t0 = time.monotonic()
            entry = path = status = error = None
            try:
                if cache is not None:
                    path = cache.result_path(
                        system, workload_name, params_fp, config_fp,
                        instrumented=self.collect_metrics)
                    entry, status = cache.load_entry(path)
                cached = entry is not None
                if not cached:
                    metrics = MetricsRegistry() if self.collect_metrics else None
                    entry = {"result": self.run(system, workload_name,
                                                metrics=metrics),
                             "metrics_flat": None, "metrics_snapshot": None}
                    if metrics is not None:
                        entry["metrics_flat"] = metrics.flat()
                        entry["metrics_snapshot"] = metrics.snapshot()
                    if cache is not None:
                        cache.store(path, entry)
            except Exception as exc:  # reported per cell, re-raised by prefetch
                cached, error = False, exc
                entry = {"result": None, "metrics_flat": None,
                         "metrics_snapshot": None}
            cells.append(dict(entry, system=system, workload=workload_name,
                              cached=cached, cache=status, cache_path=path,
                              error=error, t0=t0, t1=time.monotonic()))
        return cells

    def prefetch(self, pairs) -> Dict[str, object]:
        """Simulate every requested (system, workload) cell into the
        result cache, so later :meth:`run` calls (the figure harnesses,
        the scorecard, speedup columns) hit warm entries.

        Cells already in memory are logged as ``cache_hit``s.  The rest
        are grouped by (workload, vlmax of the system's config), known
        before any trace is built, and
        :func:`~repro.experiments.parallel.fan_out` runs the groups in
        first-seen order: in-process through :meth:`run_group` at
        ``jobs=1``, otherwise through
        :func:`~repro.experiments.parallel.simulate_cell` on the pool.
        Each cell gets its own terminal event.  Every finished cell is
        merged in group order (never completion order), worker
        self-profiler phases are absorbed under a ``worker:`` namespace,
        and then the first failed cell in input order re-raises its
        error.  Returns ``{"cells", "simulated", "cached", "jobs",
        "seconds", "cache_hits", "cache_misses", "cache_corrupt"}``;
        ``cached`` counts cells already in memory plus disk-cache hits.
        """
        start = time.perf_counter()
        ordered = list(dict.fromkeys(
            (canonical_system(system), canonical_workload(workload))
            for system, workload in pairs))
        self.telemetry.begin([f"{s}/{w}" for s, w in ordered])
        groups: Dict[Tuple[str, int], List[str]] = {}
        warm = 0
        for system, workload in ordered:
            if (system, workload) in self._results:
                warm += 1
                now = time.monotonic()
                self.telemetry.unit_finished(
                    f"{system}/{workload}", ok=True, cached=True,
                    t_start=now, t_end=now, detail={
                        "system": system, "workload": workload,
                        "cycles": self._results[system, workload].cycles})
            else:
                vlmax = trace_vlmax(make_system(system))
                groups.setdefault((workload, vlmax), []).append(system)
        specs = [(workload, tuple(systems), self.params_override,
                  self.cache_root, self.collect_metrics, self.seed)
                 for (workload, _vlmax), systems in groups.items()]
        units = [tuple(f"{s}/{workload}" for s in systems)
                 for workload, systems, *_ in specs]
        if self.jobs == 1:
            def run_spec(spec):
                return {"cells": self.run_group(*spec[:2]), "profile": {}}
        else:
            run_spec = parallel.simulate_cell
        outs = parallel.fan_out(
            run_spec, specs, self.jobs, profiler=self.profiler,
            phase="sweep", monitor=TelemetryMonitor(
                self.telemetry, units, describe=_describe_cells,
                jobs=self.jobs))
        hits = corrupt = 0
        failures = {}
        for out in outs:  # spec order: the merge is deterministic
            self.profiler.absorb(out["profile"], prefix="worker:")
            for cell in out["cells"]:
                key = (cell["system"], cell["workload"])
                corrupt += cell["cache"] == "corrupt"
                if cell["error"] is not None:
                    failures[key] = cell["error"]
                    continue
                self._results[key] = cell["result"]
                if cell["metrics_flat"] is not None:
                    self._metrics[key] = (cell["metrics_flat"],
                                          cell["metrics_snapshot"])
                hits += cell["cached"]
        for key in ordered:
            if key in failures:
                raise failures[key]
        todo = len(ordered) - warm
        return {"cells": len(ordered), "simulated": todo - hits,
                "cached": warm + hits, "jobs": self.jobs,
                "seconds": time.perf_counter() - start,
                "cache_hits": hits, "cache_misses": todo - hits,
                "cache_corrupt": corrupt}

    def speedup(self, system_name: str, workload_name: str,
                baseline: str = "IO") -> float:
        """Wall-clock speedup of ``system_name`` over ``baseline``."""
        return self.run(system_name, workload_name).speedup_over(
            self.run(baseline, workload_name))


def _describe_cells(value: Dict[str, object]) -> List[tuple]:
    """Telemetry view of one group's :meth:`ExperimentRunner.run_group`
    payloads: one ``(cached, extra_events, detail, t0, t1, error)`` per
    cell, in order, for :class:`~repro.obs.events.TelemetryMonitor`."""
    outcomes = []
    for cell in value["cells"]:
        extra = ((("cache_corrupt", {"path": cell["cache_path"]}),)
                 if cell["cache"] == "corrupt" else ())
        detail = (None if cell["error"] is not None else
                  {"system": cell["system"], "workload": cell["workload"],
                   "cycles": cell["result"].cycles})
        outcomes.append((cell["cached"], extra, detail, cell["t0"],
                         cell["t1"], cell["error"]))
    return outcomes
