"""Experiment harness: builds Table III systems, runs workloads, and
regenerates every table and figure of the paper's evaluation.

* :mod:`repro.experiments.systems` — machine construction by name.
* :mod:`repro.experiments.runner` — trace caching, simulation driver
  and the one prefetch (in-process or over a process pool).
* :mod:`repro.experiments.parallel` — the unit fan-out, the pool worker
  and the on-disk result cache.
* :mod:`repro.experiments.figures` — per-figure/table data generators
  (Figure 2, Figure 6, Figure 7, Figure 8, Table IV, area efficiency).
* :mod:`repro.experiments.report` — plain-text table rendering.
"""

from .systems import build_machine, canonical_system, trace_vlmax
from .runner import ExperimentRunner
from .parallel import DEFAULT_CACHE_ROOT, cache_stats, prune_cache, sweep_pairs
from .report import format_table, sweep_result_payload
from . import figures

#: The runner's name before it absorbed the pool executor; perfbench's
#: ``fanout`` workload still builds it by this name.
ParallelRunner = ExperimentRunner

__all__ = ["build_machine", "canonical_system", "trace_vlmax",
           "ExperimentRunner", "ParallelRunner",
           "cache_stats", "prune_cache", "DEFAULT_CACHE_ROOT",
           "sweep_pairs", "format_table",
           "sweep_result_payload", "figures"]
