"""The unit fan-out and the crash-safe on-disk cell cache.

:func:`fan_out` is the one loop that runs a campaign's units: sweeps,
``repro fuzz`` and ``repro faults`` all hand it their specs, and it
runs them in-process or on a ``multiprocessing`` pool with one failure
contract.  A sweep's spec is a *group*: the cells of one workload whose
systems grant the same vlmax, and so replay the same trace (EVE-1/2/4
share the VL=2048 trace, O3+IV and O3+DV the VL=64 one, IO and O3 the
scalar one).  :meth:`~repro.experiments.runner.ExperimentRunner.prefetch`
builds the groups and merges the outcomes back into the runner's caches
in input order, so every downstream consumer (the figure harnesses, the
scorecard, ``repro compare``) sees exactly the results a serial run
would have produced.  In a pool worker, :func:`simulate_cell` runs a
group through the runner's one cell loop on a fresh runner, which
builds and compiles the group's trace once.

A **result cache** keyed by ``(system, workload, params-fingerprint,
config-fingerprint)`` makes repeat invocations cheap — the config
fingerprint digests every Table III system config plus the toolkit
version, so a code or parameter change invalidates the cache while a
repeat invocation skips already-simulated cells entirely.  The cache is
advisory: deleting ``.eve-cache/`` (or passing ``cache_root=None``)
simply re-simulates.  Writes go to a unique temp file followed by
``os.replace``, so a crashed worker can never publish a torn pickle,
and each entry starts with the sha256 digest of its pickle bytes, so
an entry altered on disk reads as corrupt and is re-simulated.
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
from ..errors import ExperimentError
from ..obs.events import NULL_MONITOR
from ..obs.selfprof import SelfProfiler
from ..workloads import DEFAULT_SEED, REGISTRY, canonical_workload, get_workload
from .systems import canonical_system

#: Default on-disk cache directory (sibling of ``.eve-runs/``).
DEFAULT_CACHE_ROOT = ".eve-cache"

#: Bump to invalidate every cached pickle when the cache layout changes.
#: v2: traces carry ``vlmax``/``buffers`` metadata, the ``vid`` opcode,
#: and free-list register allocation.
#: v3: result-cell keys fold the trace-compiler configuration (pass list
#: + compiler version), so results of different compilers can never
#: collide on one cache entry.  (Versions up to 3 also cached traces
#: under ``traces/``; the census still counts and prunes them.)
#: v4: each entry starts with the sha256 digest of its pickle bytes, so
#: altered bytes read as corrupt even when they unpickle.
CACHE_VERSION = 4
_DIGEST_BYTES = 32

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
    run: folding it into result cells keeps results of different
    compiler versions or pass lists on distinct cells.
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
    """Pickle cache of simulated cells under ``root``.

    Layout::

        <root>/results/<config_fp>/<system>--<workload>-<params_fp>[-m].pkl

    An entry is the sha256 digest of its pickle bytes followed by those
    bytes.  Loads tolerate missing files (a miss, never an error);
    *corrupt* entries — present, but short, not matching their digest,
    or not unpickling — are distinguished from misses, quarantined in
    place (renamed to ``<path>.corrupt``, or ``<path>.N.corrupt`` if the
    entry was quarantined before; never deleted, so the evidence
    survives for a post-mortem), and reported to the caller so the
    sweep's cache telemetry can count them.  Stores are atomic (unique
    temp + ``os.replace``).
    """

    def __init__(self, root: str = DEFAULT_CACHE_ROOT) -> None:
        self.root = root

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
                blob = handle.read()
        except OSError:
            # Missing, or unreadable for environmental reasons
            # (permissions, I/O): a miss, not corruption.
            return None, "miss"
        digest, body = blob[:_DIGEST_BYTES], blob[_DIGEST_BYTES:]
        try:
            if hashlib.sha256(body).digest() != digest:
                raise ValueError("cache entry does not match its digest")
            obj = pickle.loads(body)
        except Exception:
            # Short or altered bytes, or anything else the unpickler
            # raises (a mangled opcode or length): the entry is bad.
            self.quarantine(path)
            return None, "corrupt"
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - read-only cache mounts
            pass
        return obj, "hit"

    def quarantine(self, path: str) -> str:
        """Move a corrupt entry aside (rename, don't delete) so the next
        run re-simulates instead of tripping over it again.  The target
        is the first free name among ``<path>.corrupt``,
        ``<path>.1.corrupt``, ..., so a second corruption of one entry
        keeps the first one's bytes."""
        target, n = f"{path}.corrupt", 0
        while os.path.exists(target):
            n += 1
            target = f"{path}.{n}.corrupt"
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced with another worker
            pass
        return target

    def store(self, path: str, obj) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.{id(obj):x}.tmp"
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            with open(tmp, "wb") as handle:
                handle.write(hashlib.sha256(body).digest() + body)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - error path
                os.unlink(tmp)


# -- cache accounting ----------------------------------------------------------

def _cache_entries(root: str) -> List[Tuple[float, int, str, str]]:
    """Every live cache entry under ``root`` as ``(mtime, bytes, kind,
    path)`` — kind is ``trace`` / ``result`` by subdirectory; ``traces/``
    holds only what versions that cached traces left behind.  Quarantined
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
    """Run one unit, in a pool worker or in-process, capturing what
    telemetry needs.

    This is the "workers stream events over the pool's result channel"
    half of the telemetry design: rather than opening a side channel,
    each unit's return value is wrapped with raw monotonic start/end
    timestamps (system-wide on the hosts we target, so directly
    comparable to the parent's clock), the running process's pid, and
    any exception — the parent replays these as ``started`` / terminal
    events.  Exceptions are captured, not raised, so one failed unit
    cannot stop its siblings or tear down the pool before they report.
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
    input-ordered, so the downstream merge stays deterministic.  A
    result the pool cannot hand back (say, one that does not pickle)
    is recorded as that unit's failure, and the drain goes on.
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
            try:
                observed[i] = results[i].get()
            except Exception as exc:
                observed[i] = {"value": None, "error": exc}
            pending -= 1
            monitor.on_complete(i, observed[i])
        monitor.poll()
    return observed


def fan_out(func: Callable, specs: Sequence, jobs: int,
            profiler: Optional[SelfProfiler] = None,
            phase: str = "fan_out", monitor=None) -> List:
    """Map ``func`` over ``specs``: the one loop that runs a campaign's
    units.

    Sweeps (serial and pooled), ``repro fuzz`` and ``repro faults`` all
    run their units here.  Results come back in *input* order (never
    completion order).  ``jobs=1`` or a single spec runs in-process with
    no pool, so ``func`` need not be picklable there; otherwise a pool
    deals the specs one at a time, because specs can differ in cost by
    orders of magnitude.

    Every unit runs inside :func:`_observed_call`, and ``monitor`` (a
    :class:`repro.obs.events.TelemetryMonitor`; none by default) sees
    ``on_dispatch(i)`` as specs are submitted, ``on_complete(i,
    observation)`` as results land, and ``poll()`` between completion
    checks (heartbeats, stall detection).  The failure contract is the
    same on both paths: a spec that raises is reported failed, its
    siblings still run, every spec gets exactly one ``on_complete``,
    and the first failure in input order is re-raised once all have
    finished.  The pool is created per call and always joined on exit
    (:func:`_leased_pool`).
    """
    if not specs:
        return []
    if monitor is None:
        monitor = NULL_MONITOR
    span = (profiler.phase(phase) if profiler is not None
            else contextlib.nullcontext())
    wrapped = functools.partial(_observed_call, func)
    with span:
        if jobs <= 1 or len(specs) == 1:
            observed = []
            for i, spec in enumerate(specs):
                monitor.on_dispatch(i)
                observed.append(wrapped(spec))
                monitor.on_complete(i, observed[-1])
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
    """Simulate one group of sweep cells; runs inside a pool worker.

    ``spec`` is the picklable tuple ``(workload, systems, params_override,
    cache_root, collect_metrics, seed)``, where every system in
    ``systems`` grants the same vlmax.  Builds a fresh runner from it and
    runs the group through the runner's one cell loop,
    :meth:`~repro.experiments.runner.ExperimentRunner.run_group`, so the
    group builds and compiles its trace once.  Returns ``{"cells",
    "profile"}``: the loop's per-cell payloads and the runner's
    self-profiler phases, all picklable for the parent-side merge.  A
    cell error that does not pickle is replaced by an
    :class:`~repro.errors.ExperimentError` naming its type and message,
    so the group's other cells still reach the parent.
    """
    from .runner import ExperimentRunner  # runner imports this module
    workload, systems, params_override, cache_root, collect_metrics, seed = spec
    runner = ExperimentRunner(params_override=params_override, seed=seed,
                              cache_root=cache_root,
                              collect_metrics=collect_metrics)
    cells = runner.run_group(workload, systems)
    for cell in cells:
        error = cell["error"]
        if error is not None:
            try:
                pickle.dumps(error)
            except Exception:
                cell["error"] = ExperimentError(
                    f"{cell['system']}/{cell['workload']}: "
                    f"{type(error).__name__}: {error}")
    return {"cells": cells, "profile": runner.profiler.as_dict()}


# -- the sweep grid -----------------------------------------------------------

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
