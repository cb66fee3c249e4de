"""Process-pool sweep executor with a crash-safe on-disk cell cache.

The paper's headline results are a full cross-product of ~11 systems x
7 workloads that :class:`~repro.experiments.runner.ExperimentRunner`
simulates strictly serially.  This module fans the (system, workload)
cells out over ``multiprocessing`` workers and merges the outcomes back
into the ordinary runner caches, so every downstream consumer (the
figure harnesses, the scorecard, ``repro compare``) sees exactly the
results a serial run would have produced — the simulator is
deterministic, and the merge is performed in input order regardless of
which worker finished first.

Two layers make repeat invocations cheap and workers independent:

* a **trace cache** keyed by ``(workload, vlmax, params-fingerprint)``
  — EVE-1/2/4 all decode the same VL=2048 trace, so the first worker to
  build it publishes it (atomic ``os.replace``) and the rest load the
  pickle instead of re-running the workload kernel;
* a **result cache** keyed by ``(system, workload, params-fingerprint,
  config-fingerprint)`` — the config fingerprint digests every Table
  III system config plus the toolkit version, so a code or parameter
  change invalidates the cache while a repeat invocation skips
  already-simulated cells entirely.

Both caches are advisory: deleting ``.eve-cache/`` (or passing
``cache_root=None``) simply re-simulates.  Writes go to a unique temp
file followed by ``os.replace``, so a crashed worker can never publish
a torn pickle; concurrent builders of the same key both publish
identical content and the last rename wins.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import multiprocessing
import os
import pickle
import queue
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import all_system_names
from ..obs.events import NULL_TELEMETRY, TelemetryMonitor
from ..obs.metrics import MetricsRegistry
from ..obs.selfprof import SelfProfiler
from ..workloads import DEFAULT_SEED, REGISTRY, canonical_workload, get_workload
from .runner import (ExperimentRunner, build_trace, canonical_pairs,
                     strict_check_enabled)
from .systems import build_machine, canonical_system, trace_vlmax

#: Default on-disk cache directory (sibling of ``.eve-runs/``).
DEFAULT_CACHE_ROOT = ".eve-cache"

#: Bump to invalidate every cached pickle when the cache layout changes.
#: v2: traces carry ``vlmax``/``buffers`` metadata, the ``vid`` opcode,
#: and free-list register allocation.
#: v3: result-cell keys fold the trace-compiler configuration (pass list
#: + compiler version), so results of different compilers can never
#: collide on one cache entry.
CACHE_VERSION = 3

#: ``fork`` keeps worker start-up cheap where the OS offers it; spawn is
#: the portable fallback (all cell inputs are picklable primitives).
START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")


# -- cache keys ----------------------------------------------------------------

def params_fingerprint(workload_name: str,
                       params_override: Optional[Dict[str, dict]],
                       seed: int = DEFAULT_SEED,
                       compiler: Optional[dict] = None) -> str:
    """Digest of the workload's *resolved* parameters plus the input
    seed, so tiny and paper-scale runs of the same kernel — and runs of
    the same kernel with different ``--seed`` inputs — occupy distinct
    cache cells.

    ``compiler`` is the :func:`repro.compiler.compiler_descriptor` of the
    run (``None`` for the compiler-independent trace cells): folding it
    into result cells keeps results of different compiler versions or
    pass lists on distinct cells.
    """
    workload = get_workload(canonical_workload(workload_name))
    resolved = workload.resolve(
        (params_override or {}).get(workload.name))
    resolved["__seed__"] = seed
    if compiler is not None:
        resolved["__compiler__"] = compiler
    blob = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


_CONFIG_FP: Optional[str] = None


def sweep_config_fingerprint() -> str:
    """Digest of every Table III system config plus the toolkit version
    and cache schema — the "did the code change" part of a cell key.
    Computed once per process (configs are fixed at import time)."""
    global _CONFIG_FP
    if _CONFIG_FP is None:
        from .. import __version__
        from ..obs.runstore import config_fingerprint
        _CONFIG_FP = config_fingerprint(
            {"toolkit": __version__, "cache_schema": CACHE_VERSION})
    return _CONFIG_FP


def _slug(name: str) -> str:
    return name.replace(os.sep, "_").replace(" ", "_")


# -- the on-disk cache ---------------------------------------------------------

class CellCache:
    """Pickle cache of built traces and simulated cells under ``root``.

    Layout::

        <root>/traces/<workload>-vl<N>-<params_fp>.pkl
        <root>/results/<config_fp>/<system>--<workload>-<params_fp>[-m].pkl

    Loads tolerate missing files (a miss, never an error); *corrupt*
    entries — present but unreadable pickles — are distinguished from
    misses, quarantined in place (renamed to ``<path>.corrupt``, never
    deleted, so the evidence survives for a post-mortem), and reported
    to the caller so the sweep's cache telemetry can count them.
    Stores are atomic (unique temp + ``os.replace``).
    """

    #: A present-but-unreadable pickle raises one of these.
    _CORRUPT_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                       ImportError, IndexError, ValueError)

    def __init__(self, root: str = DEFAULT_CACHE_ROOT) -> None:
        self.root = root

    def trace_path(self, workload: str, vlmax: int, params_fp: str) -> str:
        return os.path.join(self.root, "traces",
                            f"{_slug(workload)}-vl{vlmax}-{params_fp}.pkl")

    def result_path(self, system: str, workload: str, params_fp: str,
                    config_fp: str, instrumented: bool = False) -> str:
        suffix = "-m" if instrumented else ""
        return os.path.join(
            self.root, "results", config_fp,
            f"{_slug(system)}--{_slug(workload)}-{params_fp}{suffix}.pkl")

    def load_entry(self, path: str) -> Tuple[object, str]:
        """Load one entry: ``(obj, status)`` with status ``hit`` /
        ``miss`` / ``corrupt``.  Corrupt entries come back as a miss
        (``obj is None``) after being quarantined.  A hit refreshes the
        entry's mtime, so mtime order is last-use order and
        :func:`prune_cache` evicts least-recently-used entries first."""
        try:
            with open(path, "rb") as handle:
                obj = pickle.load(handle)
            try:
                os.utime(path)
            except OSError:  # pragma: no cover - read-only cache mounts
                pass
            return obj, "hit"
        except FileNotFoundError:
            return None, "miss"
        except OSError:
            # Unreadable for environmental reasons (permissions, I/O):
            # a miss, not corruption — do not quarantine.
            return None, "miss"
        except self._CORRUPT_ERRORS:
            self.quarantine(path)
            return None, "corrupt"

    def quarantine(self, path: str) -> str:
        """Move a corrupt entry aside (rename, don't delete) so the next
        run re-simulates instead of tripping over it again."""
        target = f"{path}.corrupt"
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced with another worker
            pass
        return target

    def store(self, path: str, obj) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.{id(obj):x}.tmp"
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error path
                os.unlink(tmp)


# -- cache accounting ----------------------------------------------------------

def _cache_entries(root: str) -> List[Tuple[float, int, str, str]]:
    """Every live cache entry under ``root`` as ``(mtime, bytes, kind,
    path)`` — kind is ``trace`` / ``result`` by subdirectory.  Quarantined
    ``*.corrupt`` files and stray temp files are not live entries."""
    entries: List[Tuple[float, int, str, str]] = []
    for kind, subdir in (("trace", "traces"), ("result", "results")):
        top = os.path.join(root, subdir)
        for dirpath, _dirnames, filenames in os.walk(top):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    stat = os.stat(path)
                except OSError:  # pragma: no cover - raced with a pruner
                    continue
                entries.append((stat.st_mtime, stat.st_size, kind, path))
    return entries


def cache_stats(root: str = DEFAULT_CACHE_ROOT) -> Dict[str, object]:
    """Entry counts and byte totals of the cell cache, by kind, plus a
    census of the quarantined ``*.corrupt`` files (``repro cache``)."""
    stats: Dict[str, object] = {
        "root": root,
        "exists": os.path.isdir(root),
        "trace": {"count": 0, "bytes": 0},
        "result": {"count": 0, "bytes": 0},
        "corrupt": {"count": 0, "bytes": 0},
        "total_bytes": 0,
    }
    for _mtime, size, kind, _path in _cache_entries(root):
        stats[kind]["count"] += 1
        stats[kind]["bytes"] += size
        stats["total_bytes"] += size
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".corrupt"):
                try:
                    size = os.stat(os.path.join(dirpath, name)).st_size
                except OSError:  # pragma: no cover - raced with cleanup
                    continue
                stats["corrupt"]["count"] += 1
                stats["corrupt"]["bytes"] += size
    return stats


def prune_cache(root: str = DEFAULT_CACHE_ROOT,
                max_bytes: int = 0) -> Dict[str, object]:
    """Evict least-recently-used cache entries until the live entries fit
    ``max_bytes`` (0 empties the cache).

    mtime is last-use time — :meth:`CellCache.load_entry` touches every
    hit — so eviction order is true LRU.  Quarantined ``*.corrupt`` files
    are evidence, not cache: they are never pruned and do not count
    against the budget.
    """
    entries = sorted(_cache_entries(root))  # oldest (least recent) first
    total = sum(size for _mtime, size, _kind, _path in entries)
    removed = freed = 0
    for _mtime, size, _kind, path in entries:
        if total - freed <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced with another pruner
            continue
        removed += 1
        freed += size
    return {"root": root, "max_bytes": max_bytes, "removed": removed,
            "freed_bytes": freed, "remaining_bytes": total - freed}


# -- pool lifecycle ------------------------------------------------------------

@contextlib.contextmanager
def _leased_pool(jobs: int, count: int):
    """A fresh multiprocessing pool for one fan-out, always reaped on
    exit: closed and joined on success, terminated and joined on any
    error (including KeyboardInterrupt / SystemExit), so no worker
    outlives the fan-out."""
    ctx = multiprocessing.get_context(START_METHOD)
    fresh = ctx.Pool(processes=min(jobs, count))
    try:
        yield fresh
        fresh.close()
    except BaseException:
        fresh.terminate()
        raise
    finally:
        fresh.join()


# -- the generic fan-out -------------------------------------------------------

def _observed_call(func: Callable, spec) -> Dict[str, object]:
    """Run one unit inside a worker, capturing what telemetry needs.

    This is the "workers stream events over the pool's result channel"
    half of the telemetry design: rather than opening a side channel,
    each worker wraps its return value with raw monotonic start/end
    timestamps (system-wide on the hosts we target, so directly
    comparable to the parent's clock), its pid, and any exception — the
    parent replays these as ``started`` / terminal events.  Exceptions
    are captured, not raised, so one failed unit cannot tear down the
    pool before its siblings report.
    """
    t0 = time.monotonic()
    value = error = None
    try:
        value = func(spec)
    except Exception as exc:  # replayed + re-raised by the parent
        error = exc
    return {"value": value, "error": error, "t0": t0,
            "t1": time.monotonic(), "pid": os.getpid()}


def _notify(landed: queue.SimpleQueue, index: int, _outcome) -> None:
    """``apply_async`` callback: hand the landed unit's index to the
    drain."""
    landed.put(index)


def _drain_observed(results: List, landed: queue.SimpleQueue, monitor,
                    poll_seconds: float = 0.05) -> List[Dict[str, object]]:
    """Collect ``apply_async`` observations, feeding the monitor live.

    ``landed`` receives each unit's index from its ``apply_async``
    callback (or error callback) the moment its result arrives, so the
    drain wakes on completion; a wait of ``poll_seconds`` with nothing
    landed still calls ``monitor.poll()``, keeping heartbeats and the
    stall watchdog on their cadence.  Completions are reported to
    ``monitor.on_complete`` *as they land* (completion order — only live
    progress/heartbeat state depends on it); the returned list is
    input-ordered, so the downstream merge stays deterministic.
    """
    observed: List[Optional[Dict[str, object]]] = [None] * len(results)
    pending = len(results)
    while pending:
        try:
            i = landed.get(timeout=poll_seconds)
        except queue.Empty:
            pass
        else:
            # The callback runs just before the result marks itself
            # ready; get() waits out that gap (or re-raises a failure).
            observed[i] = results[i].get()
            pending -= 1
            monitor.on_complete(i, observed[i])
        monitor.poll()
    return observed


def fan_out(func: Callable, specs: Sequence, jobs: int,
            profiler: Optional[SelfProfiler] = None,
            phase: str = "fan_out", monitor=None) -> List:
    """Map a picklable ``func`` over ``specs`` with a process pool.

    The shared executor behind :meth:`ParallelRunner.prefetch` and the
    fault-injection campaign runner: results come back in *input* order
    (never completion order), ``jobs=1`` or a single spec runs in-process
    with no pool, and ``chunksize=1`` deals work finely because specs can
    differ in cost by orders of magnitude.

    ``monitor`` (e.g. :class:`repro.obs.events.TelemetryMonitor`) opts a
    call into observed execution: every unit is wrapped by
    :func:`_observed_call`, ``monitor.on_dispatch(i)`` fires as specs
    are submitted, ``monitor.on_complete(i, observation)`` as results
    land, and ``monitor.poll()`` between completion checks (heartbeats,
    stall detection).  Worker exceptions are re-raised parent-side after
    the monitor has seen every unit's fate, preserving the unmonitored
    path's error semantics.  With ``monitor=None`` the pre-telemetry
    code path runs unchanged (``pool.map``) — the zero-cost guarantee.
    Either way the pool is created per call and always joined on exit
    (:func:`_leased_pool`).
    """
    if not specs:
        return []
    span = (profiler.phase(phase) if profiler is not None
            else contextlib.nullcontext())
    if monitor is None:
        if jobs <= 1 or len(specs) == 1:
            with span:
                return [func(spec) for spec in specs]
        with span:
            with _leased_pool(jobs, len(specs)) as mp_pool:
                return mp_pool.map(func, specs, chunksize=1)
    wrapped = functools.partial(_observed_call, func)
    with span:
        if jobs <= 1 or len(specs) == 1:
            observed = []
            for i, spec in enumerate(specs):
                monitor.on_dispatch(i)
                obs = wrapped(spec)
                observed.append(obs)
                monitor.on_complete(i, obs)
                monitor.poll()
        else:
            landed = queue.SimpleQueue()
            with _leased_pool(jobs, len(specs)) as mp_pool:
                handles = []
                for i, spec in enumerate(specs):
                    # Runs on the pool's result-handler thread: it only
                    # enqueues, and never touches the monitor.
                    notify = functools.partial(_notify, landed, i)
                    handles.append(mp_pool.apply_async(
                        wrapped, (spec,), callback=notify,
                        error_callback=notify))
                    monitor.on_dispatch(i)
                observed = _drain_observed(handles, landed, monitor)
    for obs in observed:  # first failure wins, in input order
        if obs["error"] is not None:
            raise obs["error"]
    return [obs["value"] for obs in observed]


# -- the worker ----------------------------------------------------------------

def simulate_cell(spec: tuple) -> Dict[str, object]:
    """Simulate one (system, workload) cell; runs inside a pool worker.

    ``spec`` is a picklable tuple ``(system, workload, params_override,
    cache_root, collect_metrics, verify[, seed])`` — the trailing seed
    defaults to :data:`~repro.workloads.DEFAULT_SEED`.  Every cell, with
    or without metrics, compiles its trace and replays it; a metered
    cell times on the hooked memory model, which takes the same cycles.
    Returns the :class:`~repro.cores.result.SimResult` plus the worker's
    self-profiler phases and (optionally) its metrics-registry snapshot,
    all picklable for the parent-side merge.
    """
    system, workload, params_override, cache_root, collect_metrics, \
        verify = spec[:6]
    seed = spec[6] if len(spec) > 6 else DEFAULT_SEED
    system = canonical_system(system)
    workload = canonical_workload(workload)
    profiler = SelfProfiler()
    cache = CellCache(cache_root) if cache_root else None
    from ..compiler import CompilerConfig, compile_trace, compiler_descriptor
    trace_fp = params_fingerprint(workload, params_override, seed=seed)
    params_fp = params_fingerprint(workload, params_override, seed=seed,
                                   compiler=compiler_descriptor())
    config_fp = sweep_config_fingerprint()

    # Cache telemetry for this cell: entry statuses plus the quarantined
    # paths of any corrupt pickles (merged parent-side into per-sweep
    # hit/miss/corrupt counters and ``cache_corrupt`` events).
    cache_info: Dict[str, object] = {"result": None, "trace": None,
                                     "corrupt_paths": []}
    cached = None
    if cache is not None:
        result_path = cache.result_path(system, workload, params_fp,
                                        config_fp,
                                        instrumented=collect_metrics)
        cached, status = cache.load_entry(result_path)
        cache_info["result"] = status
        if status == "corrupt":
            cache_info["corrupt_paths"].append(result_path)
    if cached is not None:
        cached.update({"system": system, "workload": workload,
                       "cached": True, "profile": profiler.as_dict(),
                       "cache": cache_info})
        return cached

    metrics = MetricsRegistry() if collect_metrics else None
    machine = build_machine(system, metrics=metrics)
    vlmax = trace_vlmax(machine.config)
    trace = None
    trace_path = None
    if cache is not None:
        # Traces are compiler-independent, so the trace cache keys on the
        # bare params fingerprint.
        trace_path = cache.trace_path(workload, vlmax, trace_fp)
        trace, status = cache.load_entry(trace_path)
        cache_info["trace"] = status
        if status == "corrupt":
            cache_info["corrupt_paths"].append(trace_path)
    if trace is None:
        with profiler.phase("trace_build"):
            trace = build_trace(workload, vlmax,
                                (params_override or {}).get(workload),
                                verify=verify, seed=seed,
                                strict=strict_check_enabled())
        if trace_path is not None:
            cache.store(trace_path, trace)
    with profiler.phase("compile"):
        compiled = compile_trace(
            trace, CompilerConfig(strict=strict_check_enabled()))
    with profiler.phase(f"sim:{system}"):
        result = machine.run(trace, compiled=compiled)

    payload: Dict[str, object] = {
        "result": result,
        "metrics_flat": metrics.flat() if metrics is not None else None,
        "metrics_snapshot": (metrics.snapshot()
                             if metrics is not None else None),
    }
    if cache is not None:
        cache.store(cache.result_path(system, workload, params_fp,
                                      config_fp,
                                      instrumented=collect_metrics),
                    dict(payload))
    payload.update({"system": system, "workload": workload,
                    "cached": False, "profile": profiler.as_dict(),
                    "cache": cache_info})
    return payload


# -- the executor --------------------------------------------------------------

def sweep_pairs(systems: Optional[Iterable[str]] = None,
                workloads: Optional[Iterable[str]] = None
                ) -> List[Tuple[str, str]]:
    """The ordered (system, workload) cross-product, canonicalized.

    Workloads vary in the outer loop (matching the figure harnesses'
    reading order) and defaults cover the full Figure 6 grid.
    """
    systems = [canonical_system(s) for s in (systems or all_system_names())]
    workloads = [canonical_workload(w)
                 for w in (workloads or sorted(REGISTRY))]
    return [(s, w) for w in workloads for s in systems]


def cell_unit(system: str, workload: str) -> str:
    """The telemetry unit id for one sweep cell."""
    return f"{system}/{workload}"


def describe_cell(payload: Dict[str, object]):
    """Telemetry view of one :func:`simulate_cell` payload:
    ``(cached, extra_events, detail)`` for
    :meth:`repro.obs.events.CampaignTelemetry.unit_finished`."""
    cache_info = payload.get("cache") or {}
    extra = tuple(("cache_corrupt", {"path": path})
                  for path in cache_info.get("corrupt_paths", ()))
    result = payload.get("result")
    detail = {"system": payload.get("system"),
              "workload": payload.get("workload")}
    cycles = getattr(result, "cycles", None)
    if isinstance(cycles, (int, float)):
        detail["cycles"] = cycles
    return bool(payload.get("cached")), extra, detail


class ParallelRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` whose cells can be prefetched by a
    process pool.

    :meth:`prefetch` fans the requested cells out over ``jobs`` workers
    and merges the returned results into the ordinary ``_results``
    cache, so subsequent :meth:`run` calls (the figure harnesses, the
    scorecard, speedup columns) hit warm entries and produce output
    byte-identical to a serial run.  With ``jobs=1`` the cells execute
    in-process through the same worker function, so the disk cache
    still applies but no pool is spawned.
    """

    def __init__(self, params_override: Optional[Dict[str, dict]] = None,
                 verify: bool = True,
                 profiler: Optional[SelfProfiler] = None,
                 jobs: Optional[int] = None,
                 cache_root: Optional[str] = DEFAULT_CACHE_ROOT,
                 collect_metrics: bool = False,
                 seed: int = DEFAULT_SEED,
                 telemetry=NULL_TELEMETRY) -> None:
        super().__init__(params_override=params_override, verify=verify,
                         profiler=profiler, seed=seed, telemetry=telemetry)
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.cache_root = cache_root
        self.collect_metrics = collect_metrics
        self._prefetched_metrics: Dict[Tuple[str, str], tuple] = {}

    def cell_metrics(self, system_name: str, workload_name: str):
        return self._prefetched_metrics.get(
            (canonical_system(system_name),
             canonical_workload(workload_name)))

    def prefetch(self, pairs: Sequence[Tuple[str, str]]
                 ) -> Dict[str, object]:
        """Simulate every requested cell, fanned out over the pool.

        Returns ``{"cells", "simulated", "cached", "jobs", "seconds"}``.
        Results are merged parent-side in input order (never completion
        order) and worker self-profiler phases are absorbed under a
        ``worker:`` namespace, so repeated prefetches are deterministic.
        """
        ordered: List[Tuple[str, str]] = canonical_pairs(pairs)
        todo = [key for key in ordered if key not in self._results]
        specs = [(system, workload, self.params_override, self.cache_root,
                  self.collect_metrics, self.verify, self.seed)
                 for system, workload in todo]
        start = time.perf_counter()
        if not specs:
            return {"cells": len(ordered), "simulated": 0, "cached": 0,
                    "jobs": self.jobs, "seconds": 0.0,
                    "cache_hits": 0, "cache_misses": 0, "cache_corrupt": 0}
        monitor = None
        if self.telemetry.enabled:
            units = [cell_unit(system, workload) for system, workload in todo]
            self.telemetry.begin(units)
            monitor = TelemetryMonitor(self.telemetry, units,
                                       describe=describe_cell,
                                       jobs=self.jobs)
        outs = fan_out(simulate_cell, specs, self.jobs,
                       profiler=self.profiler, phase="sweep",
                       monitor=monitor)
        cached = corrupt = 0
        for out in outs:  # input order: the merge is deterministic
            key = (out["system"], out["workload"])
            self._results[key] = out["result"]
            if out["metrics_flat"] is not None:
                self._prefetched_metrics[key] = (out["metrics_flat"],
                                                 out["metrics_snapshot"])
            cached += bool(out["cached"])
            corrupt += len((out.get("cache") or {}).get("corrupt_paths", ()))
            self.profiler.absorb(out["profile"], prefix="worker:")
        return {"cells": len(ordered), "simulated": len(specs) - cached,
                "cached": cached, "jobs": self.jobs,
                "seconds": time.perf_counter() - start,
                "cache_hits": cached,
                "cache_misses": len(specs) - cached,
                "cache_corrupt": corrupt}
